//! CSV emission — the artifact's `output/results/*.csv` interface.

use nvmexplorer_core::fsutil::AtomicFileWriter;
use std::fmt::Write as _;
use std::io::Write;
use std::path::Path;

/// A header + rows CSV document builder.
///
/// Rows are escaped into one text body as they are added, so a document
/// costs one growing buffer instead of a `String` per cell, and
/// [`push_row`](Self::push_row) writes cells in place without any
/// per-cell allocation.
///
/// # Examples
///
/// ```
/// use nvmx_viz::csv::Csv;
/// let mut csv = Csv::new(["tech", "read_pJ"]);
/// csv.row(["STT", "8.4"]);
/// csv.push_row().text("RRAM").num(12.25);
/// assert_eq!(csv.render(), "tech,read_pJ\nSTT,8.4\nRRAM,12.25\n");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Csv {
    header: Vec<String>,
    /// Every data row, escaped, each terminated by `\n`.
    body: String,
    rows: usize,
}

/// Quotes a CSV field when it contains separators/quotes/newlines.
pub fn escape(field: &str) -> String {
    let mut out = String::with_capacity(field.len());
    push_escaped(&mut out, field);
    out
}

fn needs_quotes(field: &str) -> bool {
    field.contains([',', '"', '\n'])
}

/// Appends `field` to `out`, quoted (inner quotes doubled) when it
/// contains separators/quotes/newlines.
pub fn push_escaped(out: &mut String, field: &str) {
    if needs_quotes(field) {
        out.push('"');
        for (i, part) in field.split('"').enumerate() {
            if i > 0 {
                out.push_str("\"\"");
            }
            out.push_str(part);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

impl Csv {
    /// Creates a CSV with the given column names.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            body: String::new(),
            rows: 0,
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let mut row = self.push_row();
        for cell in cells {
            row.text(&cell.into());
        }
        drop(row);
        self
    }

    /// Starts a row written in place: each [`Row`] call escapes one cell
    /// straight into the document body, and the row is padded/truncated to
    /// the header width and terminated when the [`Row`] is dropped.
    pub fn push_row(&mut self) -> Row<'_> {
        Row {
            csv: self,
            cells: 0,
        }
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// `true` when no data rows exist.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    fn header_line(&self) -> String {
        let mut line = String::new();
        for (i, h) in self.header.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            push_escaped(&mut line, h);
        }
        line.push('\n');
        line
    }

    /// Renders the document.
    pub fn render(&self) -> String {
        let mut out = self.header_line();
        out.push_str(&self.body);
        out
    }

    /// Writes the document to `path`, creating parent directories. The
    /// file is published atomically (sibling temp file + rename, like
    /// every other artifact writer): a killed or failed write leaves the
    /// previous file intact, never a torn one.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = AtomicFileWriter::create(path)?;
        file.write_all(self.header_line().as_bytes())?;
        file.write_all(self.body.as_bytes())?;
        file.commit()
    }
}

/// One row of a [`Csv`] being written in place (see [`Csv::push_row`]).
/// Cells past the header width are dropped; missing cells are padded
/// empty when the row is dropped.
pub struct Row<'c> {
    csv: &'c mut Csv,
    cells: usize,
}

impl Row<'_> {
    /// Writes one cell with `write`, quoting it afterwards only if the
    /// written text needs it.
    fn cell(&mut self, write: impl FnOnce(&mut String)) -> &mut Self {
        if self.cells < self.csv.header.len() {
            let body = &mut self.csv.body;
            if self.cells > 0 {
                body.push(',');
            }
            let start = body.len();
            write(body);
            if needs_quotes(&body[start..]) {
                let raw = body.split_off(start);
                push_escaped(body, &raw);
            }
        }
        self.cells += 1;
        self
    }

    /// A text cell.
    pub fn text(&mut self, value: &str) -> &mut Self {
        self.cell(|body| body.push_str(value))
    }

    /// A numeric cell, formatted like [`num`].
    pub fn num(&mut self, value: f64) -> &mut Self {
        self.cell(|body| num_into(body, value))
    }

    /// A cell holding `value`'s `Display` text (integers, booleans,
    /// labels).
    pub fn display(&mut self, value: impl std::fmt::Display) -> &mut Self {
        self.cell(|body| write!(body, "{value}").expect("writing to a String cannot fail"))
    }
}

impl Drop for Row<'_> {
    fn drop(&mut self) {
        let width = self.csv.header.len();
        for i in self.cells.min(width)..width {
            if i > 0 {
                self.csv.body.push(',');
            }
        }
        self.csv.body.push('\n');
        self.csv.rows += 1;
    }
}

/// Formats an `f64` compactly for CSV cells (up to 6 significant digits,
/// scientific for extreme magnitudes).
pub fn num(value: f64) -> String {
    let mut out = String::new();
    num_into(&mut out, value);
    out
}

/// [`num`], appended to `out` in place.
pub fn num_into(out: &mut String, value: f64) {
    if value == 0.0 {
        out.push('0');
        return;
    }
    let magnitude = value.abs();
    if !(1.0e-4..1.0e7).contains(&magnitude) {
        write!(out, "{value:.4e}").expect("writing to a String cannot fail");
    } else {
        let start = out.len();
        write!(out, "{value:.6}").expect("writing to a String cannot fail");
        let trimmed = out[start..]
            .trim_end_matches('0')
            .trim_end_matches('.')
            .len();
        out.truncate(start + trimmed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_rows() {
        let mut csv = Csv::new(["a", "b"]);
        csv.row(["1", "2"]).row(["3", "4"]);
        assert_eq!(csv.render(), "a,b\n1,2\n3,4\n");
        assert_eq!(csv.len(), 2);
    }

    #[test]
    fn escapes_commas_and_quotes() {
        let mut csv = Csv::new(["x"]);
        csv.row(["hello, \"world\""]);
        assert_eq!(csv.render(), "x\n\"hello, \"\"world\"\"\"\n");
    }

    #[test]
    fn rows_pad_and_truncate_to_the_header() {
        let mut csv = Csv::new(["a", "b", "c"]);
        csv.row(["1"]);
        csv.row(["1", "2", "3", "4"]);
        csv.push_row().num(0.5).display(true);
        csv.push_row()
            .display("x,y")
            .text("q\"")
            .num(1.0e9)
            .num(2.0);
        assert_eq!(
            csv.render(),
            "a,b,c\n1,,\n1,2,3\n0.5,true,\n\"x,y\",\"q\"\"\",1.0000e9\n"
        );
        assert_eq!(csv.len(), 4);
    }

    #[test]
    fn in_place_rows_match_owned_rows() {
        let values = [
            0.0,
            -0.0,
            3.5,
            1.0e-12,
            9.9e9,
            f64::INFINITY,
            f64::NAN,
            1234.5678,
        ];
        let mut owned = Csv::new(["n", "s"]);
        let mut in_place = Csv::new(["n", "s"]);
        for v in values {
            owned.row([num(v), "a,b".to_owned()]);
            in_place.push_row().num(v).text("a,b");
        }
        let expected: String = values
            .iter()
            .map(|&v| format!("{},{}\n", num(v), escape("a,b")))
            .collect();
        assert_eq!(in_place.render(), owned.render());
        assert_eq!(in_place.render(), format!("n,s\n{expected}"));
    }

    #[test]
    fn writes_to_disk() {
        let dir = std::env::temp_dir().join("nvmx_viz_csv_test");
        let path = dir.join("nested/out.csv");
        let mut csv = Csv::new(["k"]);
        csv.row(["v"]);
        csv.write_to(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "k\nv\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_or_dropped_writes_leave_the_previous_file_intact() {
        let dir = std::env::temp_dir().join(format!("nvmx_viz_csv_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("results.csv");
        let mut csv = Csv::new(["k"]);
        csv.row(["previous"]);
        csv.write_to(&path).unwrap();

        // A writer that dies mid-write (dropped before commit) publishes
        // nothing: the target keeps its previous complete contents.
        let mut torn = AtomicFileWriter::create(&path).unwrap();
        torn.write_all(b"k\nhalf-wri").unwrap();
        drop(torn);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "k\nprevious\n");

        // A failing write (the target is a directory, so the rename fails)
        // also leaves no temp file behind.
        let blocked = dir.join("blocked.csv");
        std::fs::create_dir_all(blocked.join("occupied")).unwrap();
        assert!(csv.write_to(&blocked).is_err());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "k\nprevious\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn num_formats_ranges() {
        assert_eq!(num(0.0), "0");
        assert_eq!(num(3.5), "3.5");
        assert_eq!(num(1200.0), "1200");
        assert!(num(2.5e-12).contains('e'));
        assert!(num(9.0e9).contains('e'));
    }
}
