//! Bitwise goldens for the TRM agent.
//!
//! The surrogate kernels (asdex-nn) and their callers in asdex-core are
//! performance-tuned under one contract: every output stays bit for bit
//! what the straightforward per-sample code produced. These goldens pin
//! that contract end to end — campaign outcomes (simulation count, best
//! value and best point as IEEE-754 bits) on the single-corner and the
//! five-corner sign-off benches, plus the surrogate's own fit loss,
//! weights and the planner's proposals, which react to any change in
//! the last bit of the arithmetic.
//!
//! The values were recorded from the per-sample reference kernels. A
//! failure here means an optimization changed a search result; it is
//! fixed in the kernel, never by re-recording.

use asdex::core::{McPlanner, SpiceApproximator};
use asdex::env::circuits::opamp::TwoStageOpamp;
use asdex::env::PvtSet;
use asdex::serve::{build_problem, run_campaign, CampaignSpec};
use asdex_rng::rngs::StdRng;
use asdex_rng::{Rng, SeedableRng};

/// FNV-1a over the bits of a float slice.
fn digest(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// One pinned campaign: `(bench, corners, seed, budget)` → outcome.
struct Golden {
    bench: &'static str,
    corners: &'static str,
    seed: u64,
    budget: usize,
    simulations: usize,
    best_value: u64,
    best_point: [u64; 7],
}

const CAMPAIGNS: &[Golden] = &[
    Golden {
        bench: "opamp45",
        corners: "nominal",
        seed: 1,
        budget: 10_000,
        simulations: 56,
        best_value: 0x0000000000000000,
        best_point: [
            0x3fb9dbcc48676f31,
            0x3fcb26c9b26c9b27,
            0x3fd890cede62433b,
            0x3fee0f83e0f83e10,
            0x3fead40a57eb5029,
            0x3fc6f96f96f96f97,
            0x3fe4000000000000,
        ],
    },
    Golden {
        bench: "opamp45",
        corners: "nominal",
        seed: 2,
        budget: 10_000,
        simulations: 22,
        best_value: 0x0000000000000000,
        best_point: [
            0x3fcc71c71c71c71c,
            0x3fddbcc48676f312,
            0x3fcf07c1f07c1f08,
            0x3febcc48676f3122,
            0x3fe745d1745d1746,
            0x3fc0690690690690,
            0x3fe0000000000000,
        ],
    },
    Golden {
        bench: "opamp45",
        corners: "nominal",
        seed: 3,
        budget: 10_000,
        simulations: 32,
        best_value: 0x0000000000000000,
        best_point: [
            0x3fc745d1745d1746,
            0x3fd2bf5a814afd6a,
            0x3fe1219dbcc48677,
            0x3fe6a052bf5a814b,
            0x3fe64d9364d9364e,
            0x3fda41a41a41a41a,
            0x3fed555555555555,
        ],
    },
    Golden {
        bench: "opamp22",
        corners: "signoff5",
        seed: 3,
        budget: 10_000,
        simulations: 53,
        best_value: 0x0000000000000000,
        best_point: [
            0x3fd6a052bf5a814b,
            0x3fdbcc48676f3122,
            0x3fd219dbcc48676f,
            0x3ff0000000000000,
            0x3fe64d9364d9364e,
            0x3fc3b13b13b13b14,
            0x3fe4000000000000,
        ],
    },
    Golden {
        bench: "opamp22",
        corners: "signoff5",
        seed: 6,
        budget: 10_000,
        simulations: 68,
        best_value: 0x0000000000000000,
        best_point: [
            0x3fe364d9364d9365,
            0x3fd5555555555555,
            0x3fc745d1745d1746,
            0x3fef07c1f07c1f08,
            0x3fe9890cede62434,
            0x3fcd89d89d89d89e,
            0x3fd8000000000000,
        ],
    },
];

#[test]
fn trm_campaign_outcomes_are_pinned_bitwise() {
    for g in CAMPAIGNS {
        let problem = build_problem(g.bench, g.corners).expect("benchmark builds");
        let spec = CampaignSpec {
            bench: g.bench.to_string(),
            corners: g.corners.to_string(),
            seed: g.seed,
            budget: g.budget,
            ..CampaignSpec::default()
        };
        let out = run_campaign(&problem, &spec, None).expect("campaign runs");
        let label = format!("{} {} seed {}", g.bench, g.corners, g.seed);
        assert_eq!(out.simulations, g.simulations, "{label}: simulations");
        assert_eq!(out.best_value.to_bits(), g.best_value, "{label}: best_value bits");
        assert_eq!(bits(&out.best_point), g.best_point.to_vec(), "{label}: best_point bits");
    }
}

/// A sign-off campaign cut off by its budget before it is feasible: its
/// best value is a non-zero spec violation whose bits follow every
/// surrogate decision of the run.
#[test]
fn capped_signoff_campaign_pins_its_violation_bitwise() {
    let problem = build_problem("opamp22", "signoff5").expect("benchmark builds");
    let spec = CampaignSpec {
        bench: "opamp22".to_string(),
        corners: "signoff5".to_string(),
        seed: 6,
        budget: 40,
        ..CampaignSpec::default()
    };
    let out = run_campaign(&problem, &spec, None).expect("campaign runs");
    assert!(!out.success, "the cap ends the campaign before sign-off");
    assert_eq!(out.simulations, 40);
    assert_eq!(out.best_value.to_bits(), 0xbf7c04fca04b41ec, "best_value bits");
    assert_eq!(
        bits(&out.best_point),
        vec![
            0x3fe45d1745d1745d,
            0x3fd40a57eb502960,
            0x3fbf07c1f07c1f08,
            0x3feeb50295fad40a,
            0x3fe8e38e38e38e39,
            0x3fd20d20d20d20d2,
            0x3fdaaaaaaaaaaaab,
        ],
        "best_point bits"
    );
}

/// Fixed training data on the opamp's 7 → 5 shape: raw measurements
/// spread over many decades, like the simulator's.
fn training_set(rng: &mut StdRng, n: usize) -> Vec<(Vec<f64>, Vec<f64>)> {
    (0..n)
        .map(|_| {
            let x: Vec<f64> = (0..7).map(|_| rng.gen::<f64>()).collect();
            let y = vec![
                60.0 + 20.0 * (x[0] - x[3]).tanh(),
                1e8 * (1.0 + x[1] * x[2]),
                45.0 + 30.0 * x[4] - 10.0 * x[5] * x[5],
                1e-4 * (0.5 + x[6]),
                1e-10 * (1.0 + x[0] + x[1]),
            ];
            (x, y)
        })
        .collect()
}

#[test]
fn surrogate_fit_and_prediction_are_pinned_bitwise() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0001);
    let mut model = SpiceApproximator::new(7, 5, 42, 0.003, &mut rng);
    model.set_window(96);
    let data = training_set(&mut rng, 120);
    let mut losses = Vec::new();
    for (k, (x, y)) in data.iter().enumerate() {
        model.push(x.clone(), y.clone());
        if k % 10 == 9 {
            losses.push(model.fit(6));
        }
    }
    let probes: Vec<f64> = data[..8].iter().flat_map(|(x, _)| model.predict(x)).collect();
    assert_eq!(
        bits(&losses),
        vec![
            0x3f91eed88d2259bc,
            0x3f915ee63fd22f48,
            0x3f9810ea98930129,
            0x3f9bfe9198cc0012,
            0x3f93f7add0752e7c,
            0x3f958f27a472a292,
            0x3f8dc55404a683f1,
            0x3f88d5e2c1bd8415,
            0x3f8c54857251a8c7,
            0x3f8a8616b51d4435,
            0x3f89a5b59b5ad571,
            0x3f857e471f6ae938,
        ],
        "fit losses"
    );
    assert_eq!(digest(&model.weights()), 0xc3d7ab052dfb799a, "trained weights");
    assert_eq!(digest(&probes), 0x4ef429c120214697, "predictions");
}

#[test]
fn planner_proposals_are_pinned_bitwise() {
    let opamp = TwoStageOpamp::bsim22();
    let problem = opamp.problem_with(opamp.specs(), PvtSet::signoff5()).expect("problem builds");
    let mut rng = StdRng::seed_from_u64(0x5eed_0002);
    let data = training_set(&mut rng, 60);
    let models: Vec<SpiceApproximator> = (0..5)
        .map(|c| {
            let mut m = SpiceApproximator::new(7, 5, 42, 0.003, &mut rng);
            for (x, y) in &data[c * 4..] {
                m.push(x.clone(), y.clone());
            }
            m.fit(6);
            m
        })
        .collect();
    let refs: Vec<&SpiceApproximator> = models.iter().collect();
    let planner = McPlanner::new(280);
    let center = vec![0.5; 7];
    let (space, value_fn, specs) = (&problem.space, &problem.value_fn, &problem.specs);
    let mut found = Vec::new();
    for k in 0..4 {
        let single = planner
            .propose(space, &center, 0.2, &models[k], value_fn, specs, &mut rng)
            .expect("a candidate");
        let multi = planner
            .propose_multi(space, &center, 0.2, &refs[..k + 2], value_fn, specs, &mut rng)
            .expect("a candidate");
        for p in [single, multi] {
            found.extend(p.x);
            found.extend(p.predicted);
            found.push(p.predicted_value);
        }
    }
    assert_eq!(digest(&found), 0x8ba62f6b050a3fd6, "proposals");
}
