//! CSV emission — the artifact's `output/results/*.csv` interface.

use nvmexplorer_core::fsutil::AtomicFileWriter;
use nvmexplorer_core::ArrayCharacterization;
use std::fmt::Write as _;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

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

/// Quotes a CSV field when it contains separators, quotes, or line breaks
/// (`\n` or `\r`).
pub fn escape(field: &str) -> String {
    let mut out = String::with_capacity(field.len());
    push_escaped(&mut out, field);
    out
}

fn needs_quotes(field: &str) -> bool {
    field
        .bytes()
        .any(|b| matches!(b, b',' | b'"' | b'\n' | b'\r'))
}

/// Appends the text `write` produces to `out`, quoted afterwards only if
/// it needs it.
fn push_written(out: &mut String, write: impl FnOnce(&mut String)) {
    let start = out.len();
    write(out);
    if needs_quotes(&out[start..]) {
        let raw = out.split_off(start);
        push_escaped(out, &raw);
    }
}

/// Appends `field` to `out`, quoted (inner quotes doubled) when it
/// contains separators, quotes, or line breaks (`\n` or `\r`).
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
        self.unquoted(|body| push_written(body, write))
    }

    /// Writes one cell with `write`, whose text never needs quoting.
    fn unquoted(&mut self, write: impl FnOnce(&mut String)) -> &mut Self {
        if self.cells < self.csv.header.len() {
            let body = &mut self.csv.body;
            if self.cells > 0 {
                body.push(',');
            }
            write(body);
        }
        self.cells += 1;
        self
    }

    /// A text cell.
    pub fn text(&mut self, value: &str) -> &mut Self {
        self.cell(|body| body.push_str(value))
    }

    /// A numeric cell, formatted like [`num`] (whose text never needs
    /// quoting).
    pub fn num(&mut self, value: f64) -> &mut Self {
        self.unquoted(|body| num_into(body, value))
    }

    /// A `true`/`false` cell.
    pub fn bool(&mut self, value: bool) -> &mut Self {
        self.unquoted(|body| body.push_str(if value { "true" } else { "false" }))
    }

    /// A cell holding `value`'s `Display` text (integers, booleans,
    /// labels).
    pub fn display(&mut self, value: impl std::fmt::Display) -> &mut Self {
        self.cell(|body| write!(body, "{value}").expect("writing to a String cannot fail"))
    }

    /// `n` cells given as one pre-escaped text: each cell already quoted
    /// as [`push_escaped`] would, joined by `,` — an [`ArrayCells`] part,
    /// say. Cells past the header width are dropped, as with single cells.
    ///
    /// ```
    /// use nvmx_viz::csv::Csv;
    /// let mut csv = Csv::new(["a", "b", "c"]);
    /// csv.push_row().cells("\"x,y\",2", 2).num(3.0);
    /// csv.push_row().num(1.0).cells("\"x,y\",2", 2).num(3.0);
    /// csv.push_row().num(1.0).num(2.0).cells("\"x,y\",2", 2);
    /// assert_eq!(csv.render(), "a,b,c\n\"x,y\",2,3\n1,\"x,y\",2\n1,2,\"x,y\"\n");
    /// ```
    pub fn cells(&mut self, text: &str, n: usize) -> &mut Self {
        let fit = n.min(self.csv.header.len().saturating_sub(self.cells));
        if fit > 0 {
            let body = &mut self.csv.body;
            if self.cells > 0 {
                body.push(',');
            }
            body.push_str(if fit == n {
                text
            } else {
                &text[..fields_end(text, fit)]
            });
        }
        self.cells += n;
        self
    }
}

/// The byte length of the first `fields` cells of escaped CSV text (the
/// whole text when it has no more).
fn fields_end(text: &str, fields: usize) -> usize {
    let mut quoted = false;
    let mut seen = 0;
    for (at, byte) in text.bytes().enumerate() {
        match byte {
            b'"' => quoted = !quoted,
            b',' if !quoted => {
                seen += 1;
                if seen == fields {
                    return at;
                }
            }
            _ => {}
        }
    }
    text.len()
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

/// The CSV text of one array's per-array cells, formatted once and copied
/// into each of the array's evaluation rows.
///
/// Both results writers — `results_csv` in the campaign binaries and
/// [`CsvSink`](crate::sink::CsvSink) — lay an array's cells out the same
/// way: a [`PREFIX`](Self::PREFIX) of `cell,technology,capacity_mib,
/// bits_per_cell,target`, then the traffic name, then a
/// [`MIDDLE`](Self::MIDDLE) of `read_latency_ns,write_latency_ns,
/// read_energy_pj,write_energy_pj,leakage_mw,area_mm2,density_mbit_mm2`.
///
/// The memo holds the last array it formatted, keyed by `Arc` identity
/// while it holds a clone (so the address cannot be reused by another
/// array meanwhile) and never by value. A miss reformats into the same
/// two buffers, so it allocates nothing once they have grown.
///
/// # Examples
///
/// ```
/// use nvmx_celldb::{tentpole, CellFlavor, TechnologyClass};
/// use nvmx_nvsim::{characterize, ArrayConfig, OptimizationTarget};
/// use nvmx_units::Capacity;
/// use nvmx_viz::csv::{ArrayCells, Csv};
/// use std::sync::Arc;
///
/// let cell = tentpole::tentpole_cell(TechnologyClass::Stt, CellFlavor::Optimistic).unwrap();
/// let config = ArrayConfig::new(Capacity::from_mebibytes(2));
/// let array = characterize(&cell, &config, OptimizationTarget::ReadEdp).unwrap();
/// let array = Arc::new(array);
/// let mut cells = ArrayCells::new();
/// let mut csv = Csv::new(["cell", "technology", "capacity_mib", "bits_per_cell", "target"]);
/// for _ in 0..2 {
///     let (prefix, _) = cells.get(&array);
///     csv.push_row().cells(prefix, ArrayCells::PREFIX);
/// }
/// assert!(csv.render().ends_with(",STT,2,SLC,ReadEDP\n"));
/// ```
#[derive(Debug, Default)]
pub struct ArrayCells {
    array: Option<Arc<ArrayCharacterization>>,
    prefix: String,
    middle: String,
}

impl ArrayCells {
    /// Cells in the prefix part.
    pub const PREFIX: usize = 5;
    /// Cells in the middle part.
    pub const MIDDLE: usize = 7;

    /// A memo that holds no array yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// `array`'s prefix and middle text (see the type docs), formatted
    /// only when `array` is not the allocation this memo saw last.
    pub fn get(&mut self, array: &Arc<ArrayCharacterization>) -> (&str, &str) {
        if !matches!(&self.array, Some(held) if Arc::ptr_eq(held, array)) {
            let a = &**array;
            let prefix = &mut self.prefix;
            prefix.clear();
            push_escaped(prefix, &a.cell_name);
            prefix.push(',');
            push_escaped(prefix, a.technology.label());
            prefix.push(',');
            num_into(prefix, a.capacity.as_mebibytes());
            prefix.push(',');
            push_written(prefix, |p| {
                write!(p, "{}", a.bits_per_cell).expect("writing to a String cannot fail");
            });
            prefix.push(',');
            push_escaped(prefix, a.target.label());
            let middle = &mut self.middle;
            middle.clear();
            for (i, value) in [
                a.read_latency.value() * 1e9,
                a.write_latency.value() * 1e9,
                a.read_energy.value() * 1e12,
                a.write_energy.value() * 1e12,
                a.leakage.value() * 1e3,
                a.area.value(),
                a.density_mbit_per_mm2(),
            ]
            .into_iter()
            .enumerate()
            {
                if i > 0 {
                    middle.push(',');
                }
                num_into(middle, value);
            }
            self.array = Some(Arc::clone(array));
        }
        (&self.prefix, &self.middle)
    }
}

/// Formats an `f64` for a CSV cell:
///
/// - `0.0` and `-0.0` print `0`;
/// - when 1e-4 ≤ |v| < 1e7, six *decimal places* (std's `{:.6}`: the
///   exact binary value rounded half to even), then trailing zeros and a
///   bare `.` are trimmed — so large values keep every integer digit;
/// - anything else, including ±inf and NaN, prints std's `{:.4e}`.
///
/// The text never contains `,`, `"` or a newline, so it never needs CSV
/// quoting.
///
/// # Examples
///
/// ```
/// use nvmx_viz::csv::num;
/// assert_eq!(num(0.0), "0");
/// assert_eq!(num(-0.0), "0");
/// assert_eq!(num(1200.0), "1200");
/// assert_eq!(num(-3.5), "-3.5");
/// assert_eq!(num(1440997.7907661), "1440997.790766");
/// assert_eq!(num(0.0001), "0.0001");
/// assert_eq!(num(2.5e-12), "2.5000e-12");
/// assert_eq!(num(9.0e9), "9.0000e9");
/// assert_eq!(num(f64::NEG_INFINITY), "-inf");
/// assert_eq!(num(f64::NAN), "NaN");
/// ```
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
    if (1.0e-4..1.0e7).contains(&magnitude) {
        fixed6_into(out, value);
    } else {
        write!(out, "{value:.4e}").expect("writing to a String cannot fail");
    }
}

/// `format!("{value:.6}")` with trailing zeros and a bare `.` trimmed, for
/// 1e-4 ≤ |value| < 1e7, printed without `core::fmt`.
///
/// With value = m·2^e (m the 53-bit significand), the range bounds
/// m·10^6 < 2^73 and −66 ≤ e ≤ −29, so `round(m·10^6·2^e)` — the value in
/// millionths — is one `u128` multiply and shift, rounded half to even
/// like std. It is at most 10^13, so it fits a `u64`, and its integer and
/// decimal parts each fit a `u32`.
fn fixed6_into(out: &mut String, value: f64) {
    let bits = value.to_bits();
    let significand = (bits & ((1 << 52) - 1)) | (1 << 52);
    // Normal in this range: the biased exponent is 1009..=1046.
    let shift = 1075 - ((bits >> 52) & 0x7ff) as u32;
    let scaled = u128::from(significand) * 1_000_000;
    let mut millionths = (scaled >> shift) as u64;
    let rest = scaled & ((1 << shift) - 1);
    let half = 1 << (shift - 1);
    if rest > half || (rest == half && millionths & 1 == 1) {
        millionths += 1;
    }

    // "-" + at most 8 integer digits + "." + 6 decimals.
    let mut text = [0u8; 16];
    let mut at = text.len();
    let mut push = |byte: u8| {
        at -= 1;
        text[at] = byte;
    };
    let mut fraction = (millionths % 1_000_000) as u32;
    if fraction != 0 {
        let mut digits = 6;
        while fraction % 10 == 0 {
            fraction /= 10;
            digits -= 1;
        }
        for _ in 0..digits {
            push(b'0' + (fraction % 10) as u8);
            fraction /= 10;
        }
        push(b'.');
    }
    let mut whole = (millionths / 1_000_000) as u32;
    loop {
        push(b'0' + (whole % 10) as u8);
        whole /= 10;
        if whole == 0 {
            break;
        }
    }
    if value < 0.0 {
        push(b'-');
    }
    out.push_str(std::str::from_utf8(&text[at..]).expect("ASCII digits"));
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
    fn quotes_carriage_returns() {
        // A bare `\r` ends a record for RFC 4180 readers, so it must be
        // quoted like `\n`.
        assert_eq!(escape("a\rb"), "\"a\rb\"");
        let mut csv = Csv::new(["x", "y"]);
        csv.push_row().text("cr\r").num(0.5);
        assert_eq!(csv.render(), "x,y\n\"cr\r\",0.5\n");
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
