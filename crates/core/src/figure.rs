//! Structured figure data and plain-text rendering.
//!
//! Every experiment driver returns [`FigureData`]: the same rows/series the
//! paper plots, as numbers. The `figures` binary renders them as text tables
//! so the reproduction can be compared against the paper without a plotting
//! stack.

use std::fmt;

/// One labelled series of `(x, y)` points (a line in a line plot).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// The legend label.
    pub label: String,
    /// The `(x, y)` points, in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Series {
        Series { label: label.into(), points }
    }
}

/// A labelled matrix of values (a heatmap).
#[derive(Debug, Clone, PartialEq)]
pub struct Heatmap {
    /// Row labels (e.g. bit error rates).
    pub row_labels: Vec<String>,
    /// Column labels (e.g. fault-injection episodes).
    pub col_labels: Vec<String>,
    /// `values[row][col]`.
    pub values: Vec<Vec<f64>>,
}

impl Heatmap {
    /// Creates a heatmap.
    ///
    /// # Panics
    ///
    /// Panics if the value matrix dimensions do not match the labels.
    pub fn new(row_labels: Vec<String>, col_labels: Vec<String>, values: Vec<Vec<f64>>) -> Heatmap {
        assert_eq!(values.len(), row_labels.len(), "row count mismatch");
        for row in &values {
            assert_eq!(row.len(), col_labels.len(), "column count mismatch");
        }
        Heatmap { row_labels, col_labels, values }
    }

    /// The value at `(row, col)`.
    pub fn value(&self, row: usize, col: usize) -> f64 {
        self.values[row][col]
    }
}

/// The content of a reproduced figure.
#[derive(Debug, Clone, PartialEq)]
pub enum FigureContent {
    /// A family of line series.
    Lines(Vec<Series>),
    /// A heatmap.
    Heatmap(Heatmap),
    /// Named scalar facts (e.g. bit statistics).
    Facts(Vec<(String, f64)>),
}

/// A reproduced figure: identifier, caption and data.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureData {
    /// Figure identifier, e.g. `"fig2a"`.
    pub id: String,
    /// Short description of what the figure shows.
    pub title: String,
    /// Axis/metric description, e.g. `"success rate (%) vs BER"`.
    pub axes: String,
    /// The data.
    pub content: FigureContent,
}

impl FigureData {
    /// Creates a figure with line-series content.
    pub fn lines(
        id: impl Into<String>,
        title: impl Into<String>,
        axes: impl Into<String>,
        series: Vec<Series>,
    ) -> FigureData {
        FigureData {
            id: id.into(),
            title: title.into(),
            axes: axes.into(),
            content: FigureContent::Lines(series),
        }
    }

    /// Creates a figure with heatmap content.
    pub fn heatmap(
        id: impl Into<String>,
        title: impl Into<String>,
        axes: impl Into<String>,
        heatmap: Heatmap,
    ) -> FigureData {
        FigureData {
            id: id.into(),
            title: title.into(),
            axes: axes.into(),
            content: FigureContent::Heatmap(heatmap),
        }
    }

    /// Creates a figure with named scalar facts.
    pub fn facts(
        id: impl Into<String>,
        title: impl Into<String>,
        facts: Vec<(String, f64)>,
    ) -> FigureData {
        FigureData {
            id: id.into(),
            title: title.into(),
            axes: String::new(),
            content: FigureContent::Facts(facts),
        }
    }

    /// Renders the figure as a plain-text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {}\n", self.id, self.title));
        if !self.axes.is_empty() {
            out.push_str(&format!("   [{}]\n", self.axes));
        }
        match &self.content {
            FigureContent::Lines(series) => {
                for s in series {
                    out.push_str(&format!("  {}:\n", s.label));
                    for (x, y) in &s.points {
                        out.push_str(&format!("    x = {x:>12.6}   y = {y:>12.4}\n"));
                    }
                }
            }
            FigureContent::Heatmap(h) => {
                out.push_str("  rows x cols:\n");
                out.push_str("    ");
                out.push_str(&format!("{:>14}", ""));
                for c in &h.col_labels {
                    out.push_str(&format!("{c:>12}"));
                }
                out.push('\n');
                for (r, label) in h.row_labels.iter().enumerate() {
                    out.push_str(&format!("    {label:>14}"));
                    for v in &h.values[r] {
                        out.push_str(&format!("{v:>12.2}"));
                    }
                    out.push('\n');
                }
            }
            FigureContent::Facts(facts) => {
                for (name, value) in facts {
                    out.push_str(&format!("  {name:<40} {value:>12.4}\n"));
                }
            }
        }
        out
    }
}

impl fmt::Display for FigureData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heatmap_shape_is_validated() {
        let h = Heatmap::new(
            vec!["0.1%".into(), "1%".into()],
            vec!["0".into(), "500".into()],
            vec![vec![98.0, 95.0], vec![60.0, 30.0]],
        );
        assert_eq!(h.value(1, 1), 30.0);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn heatmap_rejects_ragged_rows() {
        let _ = Heatmap::new(vec!["a".into()], vec!["x".into(), "y".into()], vec![vec![1.0]]);
    }

    #[test]
    fn render_includes_all_parts() {
        let fig = FigureData::lines(
            "fig5a",
            "Grid World inference",
            "success rate (%) vs BER",
            vec![Series::new("stuck-at-1", vec![(0.001, 90.0)])],
        );
        let text = fig.render();
        assert!(text.contains("fig5a"));
        assert!(text.contains("stuck-at-1"));
        assert!(text.contains("90.0"));
        assert_eq!(text, fig.to_string());

        let facts = FigureData::facts("fig2b", "bit stats", vec![("zero bits (%)".into(), 76.1)]);
        assert!(facts.render().contains("zero bits"));

        let heat = FigureData::heatmap(
            "fig2a",
            "training heatmap",
            "success vs (BER, episode)",
            Heatmap::new(vec!["0.1%".into()], vec!["0".into()], vec![vec![97.0]]),
        );
        assert!(heat.render().contains("97.00"));
    }
}
