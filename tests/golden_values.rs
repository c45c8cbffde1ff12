//! Golden-value regression tests: the exact numbers recorded in
//! `EXPERIMENTS.md` for the §6 baseline. Any model change that moves these
//! is either a bug or a deliberate re-derivation that must update the
//! documentation alongside.

use nsr_core::config::Configuration;
use nsr_core::params::Params;
use nsr_core::raid::InternalRaid;

fn close(actual: f64, golden: f64, tag: &str) {
    let rel = (actual - golden).abs() / golden;
    assert!(
        rel < 1e-3,
        "{tag}: got {actual:.6e}, golden {golden:.6e} (rel {rel:.2e})"
    );
}

#[test]
fn figure13_closed_form_golden_values() {
    // (internal, ft) -> events per PB-year as recorded in EXPERIMENTS.md.
    let golden = [
        (InternalRaid::None, 1, 4.384e1),
        (InternalRaid::Raid5, 1, 3.152e-2),
        (InternalRaid::Raid6, 1, 5.922e-3),
        (InternalRaid::None, 2, 3.300e-3),
        (InternalRaid::Raid5, 2, 5.104e-6),
        (InternalRaid::Raid6, 2, 3.296e-6),
        (InternalRaid::None, 3, 4.191e-7),
        (InternalRaid::Raid5, 3, 1.516e-9),
        (InternalRaid::Raid6, 3, 1.341e-9),
    ];
    let params = Params::baseline();
    for (internal, ft, value) in golden {
        let config = Configuration::new(internal, ft).unwrap();
        let got = config
            .evaluate(&params)
            .unwrap()
            .closed_form
            .events_per_pb_year;
        close(got, value, &format!("{config}"));
    }
}

#[test]
fn figure13_exact_golden_values() {
    let golden = [
        (InternalRaid::None, 1, 1.6904e3),
        (InternalRaid::None, 2, 2.0607e7),
        (InternalRaid::Raid5, 2, 1.3262e10),
        (InternalRaid::None, 3, 1.9449e11),
    ];
    let params = Params::baseline();
    for (internal, ft, mttdl) in golden {
        let config = Configuration::new(internal, ft).unwrap();
        let got = config.evaluate(&params).unwrap().exact.mttdl_hours;
        close(got, mttdl, &format!("{config} exact"));
    }
}

#[test]
fn rebuild_rates_golden_values() {
    let point = |internal| {
        Configuration::new(internal, 2)
            .unwrap()
            .model(&Params::baseline())
            .unwrap()
    };
    let model = point(InternalRaid::None);
    // Node rebuild at t = 2: 3.53 h disk-bound.
    close(model.node_rebuild.duration.0, 3.532, "node rebuild t=2");
    // Drive rebuild at t = 2: 1/12 of the node duration.
    close(model.drive_repair.duration.0, 0.2944, "drive rebuild t=2");
    // Re-stripe: ≈34.1 h.
    close(
        point(InternalRaid::Raid5).drive_repair.duration.0,
        34.09,
        "re-stripe",
    );
    // Disk/network crossover ≈ 2.53 Gb/s.
    close(model.crossover_link_speed, 2.53, "crossover");
}

#[test]
fn derived_parameter_golden_values() {
    let params = Params::baseline();
    close(params.drive.c_her(), 0.024, "C·HER");
    close(params.raw_capacity().0, 230.4e12, "raw capacity");
    let ft2 = Configuration::new(InternalRaid::None, 2).unwrap();
    close(
        ft2.model(&params).unwrap().logical_capacity.0,
        129.6e12,
        "logical capacity t=2",
    );
    // Spare-pool life ≈ 4.9 years.
    let spares = nsr_core::spares::SpareModel::new(params).unwrap();
    close(
        spares.expected_lifetime().unwrap().to_years(),
        4.8924,
        "spare life",
    );
}

#[test]
fn figure_a1_golden_values() {
    use nsr_core::recursive::RecursiveModel;
    use nsr_core::units::PerHour;
    // Exact MTTDLs at baseline rates, k = 2..4, as recorded in fig_a1.
    let golden = [(2u32, 2.0213e7), (3, 1.1862e11), (4, 1.2486e14)];
    for (k, mttdl) in golden {
        let m = RecursiveModel::new(
            k,
            64,
            8,
            12,
            PerHour(1.0 / 400_000.0),
            PerHour(1.0 / 300_000.0),
            PerHour(0.28),
            PerHour(3.24),
            0.024,
        )
        .unwrap();
        close(m.mttdl_exact().unwrap().0, mttdl, &format!("A1 k={k}"));
        close(m.mttdl_lemma().0, mttdl, &format!("A1 lemma k={k}"));
    }
}

#[test]
fn mission_golden_values() {
    // P(loss in 5y) values from the report.
    let params = Params::baseline();
    let golden = [
        (InternalRaid::None, 2, 2.123e-3),
        (InternalRaid::Raid5, 2, 3.302e-6),
        (InternalRaid::None, 3, 2.252e-7),
    ];
    for (internal, ft, p) in golden {
        let config = Configuration::new(internal, ft).unwrap();
        let got = nsr_core::mission::loss_probability(config, &params, 5.0).unwrap();
        close(got, p, &format!("mission {config}"));
    }
}
