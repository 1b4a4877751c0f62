//! Self-contained SVG scatter plots — the static stand-in for the paper's
//! interactive Tableau dashboard. Log or linear axes, per-series colors,
//! decade grid lines, and a legend.

use nvmexplorer_core::fsutil::AtomicFileWriter;
use std::io::Write;
use std::path::Path;

/// A named series of `(x, y)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// CSS color.
    pub color: String,
    /// Data points.
    pub points: Vec<(f64, f64)>,
}

/// Axis scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Linear axis.
    Linear,
    /// Base-10 logarithmic axis (positive values only).
    Log,
}

/// A scatter-plot description rendered to a standalone SVG document.
#[derive(Debug, Clone)]
pub struct ScatterPlot {
    /// Plot title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// X-axis scale.
    pub x_scale: Scale,
    /// Y-axis scale.
    pub y_scale: Scale,
    /// The data series.
    pub series: Vec<Series>,
}

const WIDTH: f64 = 760.0;
const HEIGHT: f64 = 480.0;
const MARGIN_L: f64 = 80.0;
const MARGIN_R: f64 = 170.0;
const MARGIN_T: f64 = 50.0;
const MARGIN_B: f64 = 60.0;

/// Default color cycle for series added without explicit colors.
pub const PALETTE: [&str; 10] = [
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
    "#bcbd22", "#17becf",
];

impl ScatterPlot {
    /// Creates an empty plot with log-log axes (the common case for
    /// energy/latency scatters).
    pub fn log_log(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Self {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            x_scale: Scale::Log,
            y_scale: Scale::Log,
            series: Vec::new(),
        }
    }

    /// Adds a series with an automatic palette color.
    pub fn series(&mut self, name: impl Into<String>, points: Vec<(f64, f64)>) -> &mut Self {
        let color = PALETTE[self.series.len() % PALETTE.len()].to_owned();
        self.series.push(Series {
            name: name.into(),
            color,
            points,
        });
        self
    }

    fn transform(scale: Scale, v: f64) -> f64 {
        match scale {
            Scale::Linear => v,
            Scale::Log => v.max(f64::MIN_POSITIVE).log10(),
        }
    }

    fn bounds(&self) -> ((f64, f64), (f64, f64)) {
        let mut xs: Vec<f64> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        for s in &self.series {
            for &(x, y) in &s.points {
                if self.x_scale == Scale::Log && x <= 0.0 {
                    continue;
                }
                if self.y_scale == Scale::Log && y <= 0.0 {
                    continue;
                }
                xs.push(Self::transform(self.x_scale, x));
                ys.push(Self::transform(self.y_scale, y));
            }
        }
        let span = |v: &[f64]| -> (f64, f64) {
            if v.is_empty() {
                return (0.0, 1.0);
            }
            let lo = v.iter().cloned().fold(f64::MAX, f64::min);
            let hi = v.iter().cloned().fold(f64::MIN, f64::max);
            if (hi - lo).abs() < 1e-12 {
                (lo - 0.5, hi + 0.5)
            } else {
                let pad = (hi - lo) * 0.06;
                (lo - pad, hi + pad)
            }
        };
        (span(&xs), span(&ys))
    }

    /// Renders the plot to an SVG document string.
    pub fn render(&self) -> String {
        let ((x_lo, x_hi), (y_lo, y_hi)) = self.bounds();
        let plot_w = WIDTH - MARGIN_L - MARGIN_R;
        let plot_h = HEIGHT - MARGIN_T - MARGIN_B;
        let to_px = |x: f64, y: f64| -> (f64, f64) {
            let px = MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w;
            let py = MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h;
            (px, py)
        };

        let mut svg = String::new();
        svg.push_str(&format!(
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">"#
        ));
        svg.push_str(r#"<rect width="100%" height="100%" fill="white"/>"#);
        svg.push_str(&format!(
            r#"<text x="{}" y="24" font-size="16" font-family="sans-serif" text-anchor="middle">{}</text>"#,
            WIDTH / 2.0,
            xml_escape(&self.title)
        ));

        // Frame.
        svg.push_str(&format!(
            r##"<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" fill="none" stroke="#333"/>"##
        ));

        // Grid + tick labels (decades for log axes, 5 ticks for linear).
        let ticks = |scale: Scale, lo: f64, hi: f64| -> Vec<(f64, String)> {
            match scale {
                Scale::Log => {
                    let mut t = Vec::new();
                    let mut d = lo.floor() as i64;
                    while (d as f64) <= hi {
                        if (d as f64) >= lo {
                            t.push((d as f64, format!("1e{d}")));
                        }
                        d += 1;
                    }
                    t
                }
                Scale::Linear => (0..=4)
                    .map(|i| {
                        let v = lo + (hi - lo) * i as f64 / 4.0;
                        (v, format!("{v:.3}"))
                    })
                    .collect(),
            }
        };
        for (x, label) in ticks(self.x_scale, x_lo, x_hi) {
            let (px, _) = to_px(x, y_lo);
            svg.push_str(&format!(
                r##"<line x1="{px:.1}" y1="{MARGIN_T}" x2="{px:.1}" y2="{:.1}" stroke="#ddd"/>"##,
                MARGIN_T + plot_h
            ));
            svg.push_str(&format!(
                r#"<text x="{px:.1}" y="{:.1}" font-size="11" font-family="sans-serif" text-anchor="middle">{label}</text>"#,
                MARGIN_T + plot_h + 16.0
            ));
        }
        for (y, label) in ticks(self.y_scale, y_lo, y_hi) {
            let (_, py) = to_px(x_lo, y);
            svg.push_str(&format!(
                r##"<line x1="{MARGIN_L}" y1="{py:.1}" x2="{:.1}" y2="{py:.1}" stroke="#ddd"/>"##,
                MARGIN_L + plot_w
            ));
            svg.push_str(&format!(
                r#"<text x="{:.1}" y="{py:.1}" font-size="11" font-family="sans-serif" text-anchor="end">{label}</text>"#,
                MARGIN_L - 6.0
            ));
        }

        // Axis labels.
        svg.push_str(&format!(
            r#"<text x="{}" y="{}" font-size="13" font-family="sans-serif" text-anchor="middle">{}</text>"#,
            MARGIN_L + plot_w / 2.0,
            HEIGHT - 14.0,
            xml_escape(&self.x_label)
        ));
        svg.push_str(&format!(
            r#"<text x="18" y="{}" font-size="13" font-family="sans-serif" text-anchor="middle" transform="rotate(-90 18 {})">{}</text>"#,
            MARGIN_T + plot_h / 2.0,
            MARGIN_T + plot_h / 2.0,
            xml_escape(&self.y_label)
        ));

        // Points + legend.
        for (i, series) in self.series.iter().enumerate() {
            for &(x, y) in &series.points {
                if (self.x_scale == Scale::Log && x <= 0.0)
                    || (self.y_scale == Scale::Log && y <= 0.0)
                {
                    continue;
                }
                let (px, py) = to_px(
                    Self::transform(self.x_scale, x),
                    Self::transform(self.y_scale, y),
                );
                svg.push_str(&format!(
                    r#"<circle cx="{px:.1}" cy="{py:.1}" r="4" fill="{}" fill-opacity="0.8"/>"#,
                    series.color
                ));
            }
            let ly = MARGIN_T + 14.0 + i as f64 * 18.0;
            let lx = WIDTH - MARGIN_R + 12.0;
            svg.push_str(&format!(
                r#"<circle cx="{lx:.1}" cy="{ly:.1}" r="4" fill="{}"/>"#,
                series.color
            ));
            svg.push_str(&format!(
                r#"<text x="{:.1}" y="{:.1}" font-size="12" font-family="sans-serif">{}</text>"#,
                lx + 10.0,
                ly + 4.0,
                xml_escape(&series.name)
            ));
        }

        svg.push_str("</svg>");
        svg
    }

    /// Writes the SVG to `path`, creating parent directories. Like
    /// [`Csv::write_to`](crate::Csv::write_to), it publishes atomically
    /// (sibling temp file + rename): an interrupted write leaves the
    /// previous file intact, never a truncated one.
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
        file.write_all(self.render().as_bytes())?;
        file.commit()
    }
}

fn xml_escape(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScatterPlot {
        let mut plot = ScatterPlot::log_log("Read energy vs latency", "latency (s)", "energy (J)");
        plot.series("STT", vec![(1.0e-9, 8.0e-12), (2.0e-9, 6.0e-12)]);
        plot.series("SRAM", vec![(0.7e-9, 12.0e-12)]);
        plot
    }

    #[test]
    fn renders_valid_svg_shell() {
        let svg = sample().render();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert!(svg.contains("Read energy vs latency"));
        assert!(svg.contains("STT"));
        assert_eq!(svg.matches("<circle").count(), 3 + 2); // points + legend dots
    }

    #[test]
    fn log_axis_skips_nonpositive_points() {
        let mut plot = ScatterPlot::log_log("t", "x", "y");
        plot.series("s", vec![(1.0, 1.0), (0.0, 5.0), (-1.0, 2.0)]);
        let svg = plot.render();
        assert_eq!(svg.matches("<circle").count(), 1 + 1);
    }

    #[test]
    fn escapes_markup_in_labels() {
        let mut plot = ScatterPlot::log_log("a<b", "x & y", "z");
        plot.series("s<1>", vec![(1.0, 1.0)]);
        let svg = plot.render();
        assert!(svg.contains("a&lt;b"));
        assert!(svg.contains("x &amp; y"));
        assert!(!svg.contains("s<1>"));
    }

    #[test]
    fn decade_ticks_on_log_axes() {
        let mut plot = ScatterPlot::log_log("t", "x", "y");
        plot.series("s", vec![(1.0e-9, 1.0e-12), (1.0e-6, 1.0e-9)]);
        let svg = plot.render();
        assert!(svg.contains("1e-9"));
        assert!(svg.contains("1e-12"));
    }

    #[test]
    fn writes_to_disk() {
        let dir = std::env::temp_dir().join("nvmx_viz_svg_test");
        let path = dir.join("plot.svg");
        sample().write_to(&path).unwrap();
        assert!(std::fs::read_to_string(&path).unwrap().contains("</svg>"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overwrites_atomically_without_leaving_temp_files() {
        let dir = std::env::temp_dir().join(format!("nvmx_viz_svg_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plot.svg");
        std::fs::write(&path, "stale").unwrap();
        // A second name for the old file: a rename replaces the file and
        // leaves this one alone, a write in place would truncate it.
        let old = dir.join("old.svg");
        std::fs::hard_link(&path, &old).unwrap();
        let plot = sample();
        plot.write_to(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), plot.render());
        assert_eq!(std::fs::read_to_string(&old).unwrap(), "stale");
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        assert_eq!(names, ["old.svg", "plot.svg"], "temp sibling left behind");
        std::fs::remove_dir_all(&dir).ok();
    }
}
