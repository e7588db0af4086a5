//! Integration test: the figure-reproduction sweeps run end to end at smoke
//! scale and produce well-formed data.

use navft_core::sweep::Sweep;
use navft_core::{experiments, FigureContent, FigureData, Scale};

/// Runs one figure's sweep standalone at smoke scale.
fn smoke(build: fn(Scale) -> Sweep) -> Vec<FigureData> {
    build(Scale::Smoke).collect(Scale::Smoke.threads())
}

#[test]
fn figure_index_is_complete_and_ids_are_unique() {
    let ids = experiments::figure_ids();
    let unique: std::collections::HashSet<_> = ids.iter().collect();
    assert_eq!(unique.len(), ids.len());
    assert!(ids.len() >= 12);
}

#[test]
fn fig5_inference_driver_produces_all_four_fault_modes() {
    let figures = smoke(experiments::fig5::sweep);
    assert_eq!(figures.len(), 2);
    for figure in &figures {
        let FigureContent::Lines(series) = &figure.content else {
            panic!("{} should be a line figure", figure.id);
        };
        assert_eq!(series.len(), 4);
        for s in series {
            assert_eq!(s.points.len(), Scale::Smoke.grid().bit_error_rates.len());
            for (_, y) in &s.points {
                assert!((0.0..=100.0).contains(y), "success rate {y} out of range");
            }
        }
        assert!(!figure.render().is_empty());
    }
}

#[test]
fn fig2_histograms_report_bit_statistics() {
    let figures = smoke(experiments::fig2::histogram_sweep);
    assert_eq!(figures.len(), 2);
    for figure in &figures {
        let FigureContent::Facts(facts) = &figure.content else {
            panic!("expected facts");
        };
        let zero = facts.iter().find(|(n, _)| n.contains("'0' bits")).expect("zero-bit fact").1;
        let one = facts.iter().find(|(n, _)| n.contains("'1' bits")).expect("one-bit fact").1;
        assert!((zero + one - 100.0).abs() < 1e-6);
        assert!(zero > one, "trained policies should be zero-bit dominated");
    }
}

#[test]
fn fig7d_layer_sensitivity_covers_all_five_layers() {
    let figures = smoke(experiments::fig7::layer_sweep);
    let FigureContent::Lines(series) = &figures[0].content else { panic!("expected lines") };
    let labels: Vec<&str> = series.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(labels, vec!["conv1", "conv2", "conv3", "fc1", "fc2"]);
}

#[test]
fn fig10_reports_headline_facts() {
    let figures = smoke(experiments::fig10::sweep);
    assert!(figures.iter().any(|f| f.id == "fig10a"));
    assert!(figures.iter().any(|f| f.id == "fig10b"));
    let headline = figures.iter().find(|f| f.id == "fig10-headline").expect("headline facts");
    let FigureContent::Facts(facts) = &headline.content else { panic!("expected facts") };
    assert_eq!(facts.len(), 4);
    // The guard's cost is counted from the topology, so it is the same on
    // every run and strictly positive.
    let names: Vec<&str> = facts[2..].iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        names,
        ["range-guard words checked per inference", "range-guard checks per MAC (%)"]
    );
    assert!(facts[2..].iter().all(|&(_, value)| value > 0.0));
}
