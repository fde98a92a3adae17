//! The shipped example decks must parse, bias, and measure sensibly —
//! they are the first thing a new user feeds to `asdex sim` — and the
//! shipped *sizing* decks (`decks/*.sp`) must compile through the
//! netlist-bench frontend and reproduce their recorded measurement
//! goldens bit for bit.

use asdex::env::{netlist_digest, EvalEffort, NetlistBench, PvtSet, SearchBudget, Searcher};
use asdex::serve::build_problem;
use asdex::spice::analysis::SolverChoice;
use asdex::spice::analysis::{ac_analysis, dc_operating_point, OpOptions, Sweep};
use asdex::spice::measure::frequency_response;
use asdex::spice::parser::parse_netlist;
use std::path::Path;

#[test]
fn rc_filter_deck_measures_like_two_cascaded_poles() {
    let src = std::fs::read_to_string("decks/rc_filter.cir").expect("deck ships with the repo");
    let ckt = parse_netlist(&src).expect("parses");
    let ac = ac_analysis(
        &ckt,
        Sweep::Decade { fstart: 10.0, fstop: 10e6, points_per_decade: 10 },
        &OpOptions::default(),
    )
    .expect("ac runs");
    let out = ckt.find_node("out").expect("out node");
    let fr = frequency_response(&ac, out);
    assert!((fr.dc_gain_db - 0.0).abs() < 0.1, "unity DC gain, got {}", fr.dc_gain_db);
    let bw = fr.bandwidth_3db.expect("has a corner");
    // Dominant pole ≈ 1/(2π·(R1·C1 + (R1+R2)·C2)) ≈ 7.5 kHz; loose check.
    assert!(bw > 1e3 && bw < 20e3, "bandwidth {bw}");
}

#[test]
fn opamp_deck_biases_and_amplifies() {
    let src =
        std::fs::read_to_string("decks/two_stage_opamp.cir").expect("deck ships with the repo");
    let ckt = parse_netlist(&src).expect("parses (subckt expansion)");
    let op = dc_operating_point(&ckt, &OpOptions::default()).expect("biases");
    let out = ckt.find_node("out").expect("out node");
    let vout = op.voltage(out);
    assert!(
        (0.5..1.5).contains(&vout),
        "feedback centers the output near the input common mode, got {vout}"
    );
    let ac = ac_analysis(
        &ckt,
        Sweep::Decade { fstart: 10.0, fstop: 10e9, points_per_decade: 10 },
        &OpOptions::default(),
    )
    .expect("ac runs");
    let fr = frequency_response(&ac, out);
    assert!(fr.dc_gain_db > 60.0, "open-loop gain {} dB", fr.dc_gain_db);
    assert!(fr.unity_gain_freq.is_some(), "has a UGF");
}

/// Grid-midpoint measurement goldens for every shipped sizing deck, as
/// IEEE-754 bit patterns (`{:016x}` of `f64::to_bits`), in measurement
/// order `gain_db, ugf_hz, pm_deg, power_w, area_m2`. String equality ⇔
/// bitwise equality — the same contract the journal and wire formats
/// use — so any change to a deck, the parser, the compiler, or the
/// simulator that perturbs even one ulp fails here by name.
const SIZING_GOLDENS: &[(&str, [&str; 5])] = &[
    (
        "two_stage_opamp_sized.sp",
        [
            "4058437fddbb7b2a",
            "418370b80341bd8b",
            "4029f01e81f33820",
            "3f0cbd99aae1108a",
            "3db23b318ff64a87",
        ],
    ),
    (
        "folded_cascode_opamp.sp",
        [
            "c0660334c5897b20",
            "0000000000000000",
            "0000000000000000",
            "3f0bb6092fc50cda",
            "3dab4b1a6284035a",
        ],
    ),
    (
        "bandgap_reference.sp",
        [
            "c048740a3c5423b2",
            "0000000000000000",
            "0000000000000000",
            "3ec287e67ed65610",
            "3da718e89e5a2764",
        ],
    ),
    (
        "comparator.sp",
        [
            "40584c2ff8a2e0b6",
            "41be348c7db3a7b5",
            "c0244deec5c35350",
            "3f0ca03faeba17ef",
            "3db23b318ff64a87",
        ],
    ),
    (
        "two_stage_ldo.sp",
        [
            "c0651f073c734a82",
            "0000000000000000",
            "0000000000000000",
            "3ef30ff6e5dedbc6",
            "3da27737fec6d694",
        ],
    ),
];

#[test]
fn sizing_decks_compile_and_match_midpoint_goldens_bitwise() {
    for (file, want) in SIZING_GOLDENS {
        let path = Path::new("decks").join(file);
        let bench = NetlistBench::load(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
        // The digest the daemon journals is the digest of the shipped
        // source, stable under include expansion (none here).
        assert_eq!(
            bench.digest(),
            netlist_digest(bench.source()),
            "{file}: digest disagrees with its own source"
        );
        let problem = bench.problem().unwrap_or_else(|e| panic!("{file}: {e}"));
        let eval = problem.evaluate_normalized(&vec![0.5; problem.dim()], 0);
        let meas = eval
            .measurements
            .unwrap_or_else(|| panic!("{file}: midpoint fails: {:?}", eval.failure));
        let got: Vec<String> = meas.iter().map(|v| format!("{:016x}", v.to_bits())).collect();
        assert_eq!(got, want.to_vec(), "{file}: midpoint measurements drifted");
    }
}

/// The same midpoint goldens for the built-in MNA benches that ship no
/// deck: `(bench, effort attempt, one vector per signoff5 corner)`, in
/// each bench's own measurement order. Attempt 1 starts Newton from the
/// retry ladder's perturbed guess with escalated options, so the goldens
/// pin both rungs of the pooled solve path.
const BUILTIN_GOLDENS: &[(&str, usize, [[&str; 5]; 5])] = &[
    ("opamp22", 0, [
        ["4058b9d86e87e45c", "41905d86f2d6689f", "402dcec3d2a46fc0", "3f07f4cbe7dac650", "3da35611c3840928"],
        ["4056e6707ecf0d9a", "4185e140b13739a0", "402d68eaf7db3870", "3f05a23641f833e0", "3da35611c3840928"],
        ["405929a8f29f7d92", "41912683e73b773e", "402f0c85af0d1d40", "3f04d7a15b3a57d0", "3da35611c3840928"],
        ["4057fe33dcad63b9", "418d9e33d4e62693", "402c67d7085db620", "3f0b7c5756f62c12", "3da35611c3840928"],
        ["405a431752621474", "419731735b4a28b6", "402e464e6b56ff70", "3f0a70f498bd7849", "3da35611c3840928"],
    ]),
    ("opamp22", 1, [
        ["4058b9d876dcd00f", "41905d874dcc4ef6", "402dcec17239d320", "3f07f4cbe8223248", "3da35611c3840928"],
        ["4056e670e53b77a3", "4185e140b867dbda", "402d68eaa521c510", "3f05a23641fb6176", "3da35611c3840928"],
        ["405929a8ee319c11", "41912684054bb103", "402f0c84ef898d00", "3f04d7a15b1c36ed", "3da35611c3840928"],
        ["4057fe33b32533ca", "418d9e318b97969c", "402c67df30fb3bf0", "3f0b7c57549c3099", "3da35611c3840928"],
        ["405a4317456e7095", "419731746a987559", "402e466250f5caf0", "3f0a70f498bc44f9", "3da35611c3840928"],
    ]),
    ("ldo", 0, [
        ["405055befbbcf2fd", "4053683996afff2d", "40769f4c03974903", "3ef8d8a6446f7800", "3feeb61430288db2"],
        ["404ce8a0a300fc1a", "40540baad5780cca", "40769f4c03974903", "3ef882331b4e9c00", "3feba1b2351cba5f"],
        ["c072c00000000000", "4056800000000000", "40769f4c03974903", "3ee47d4842b7cea0", "0000000000000000"],
        ["404f58ee97ebca18", "405396c349d99c2e", "40769f4c03974903", "3efa3599a878a400", "3ff0e3ceff6b1696"],
        ["4051ebd1b0c76c16", "4052f7ce4d5d6014", "40769f4c03974903", "3ef953900ab1d400", "3ff0e4bc0865667e"],
    ]),
    ("ldo", 1, [
        ["405055befc2bb936", "4053683997392ee0", "40769f4c03974903", "3ef8d8a6446f2000", "3feeb614302655f3"],
        ["404ce8a0a2fce54e", "40540baad5768045", "40769f4c03974903", "3ef882331b4e7c00", "3feba1b2351c50cf"],
        ["c0701c0749ce8b46", "4056800000000000", "40769f4c03974903", "3ee47d4842b92098", "396ec5e44516501c"],
        ["404f58ee97cd2e76", "405396c34997264a", "40769f4c03974903", "3efa3599a8615000", "3ff0e3ceff3234cf"],
        ["4051ebd1c72ec105", "4052f7ce7363c22f", "40769f4c03974903", "3ef953900aa65000", "3ff0e4bc08461309"],
    ]),
];

#[test]
fn builtin_benches_match_midpoint_goldens_bitwise() {
    for (bench, attempt, want) in BUILTIN_GOLDENS {
        // The default backend (auto: dense at these sizes) and dense
        // pinned explicitly must both land on the recorded bits.
        for choice in [SolverChoice::default(), SolverChoice::Dense] {
            let problem = build_problem(bench, "nominal").expect("benchmark builds");
            problem.evaluator.set_solver(choice);
            let x: Vec<f64> =
                problem.space.params().iter().map(|p| p.grid[(p.grid.len() - 1) / 2]).collect();
            for (corner, want) in PvtSet::signoff5().corners().iter().zip(want) {
                let meas = problem
                    .evaluator
                    .evaluate_with_effort(&x, corner, EvalEffort::attempt(*attempt))
                    .unwrap_or_else(|e| panic!("{bench} {corner:?} attempt {attempt}: {e}"));
                let got: Vec<String> = meas.iter().map(|v| format!("{:016x}", v.to_bits())).collect();
                assert_eq!(
                    got,
                    want.to_vec(),
                    "{bench} {corner:?} attempt {attempt} {choice:?}: midpoint measurements drifted"
                );
            }
        }
    }
}

#[test]
fn sizing_decks_search_end_to_end() {
    // A short random-search campaign over every shipped deck: the cheap
    // proof that each compiles into a problem every agent can drive.
    for (file, _) in SIZING_GOLDENS {
        let bench = NetlistBench::load(&Path::new("decks").join(file)).unwrap();
        let problem = bench.problem().unwrap();
        let out =
            asdex::baselines::RandomSearch::new().search(&problem, SearchBudget::new(20), 1);
        assert!(out.simulations > 0, "{file}: search ran no simulations");
        assert_eq!(out.best_point.len(), problem.dim(), "{file}");
    }
}

#[test]
fn malformed_sizing_stanzas_are_typed_errors_never_panics() {
    let base = std::fs::read_to_string("decks/bandgap_reference.sp").unwrap();
    // Each row mutates the known-good deck one way; every mutant must
    // fail `compile` with a typed error (or, for the last rows, still
    // compile — the mutation is legal) without panicking.
    let mutants: &[(&str, &str)] = &[
        (".process 45", ".process 13"),
        (".process 45", ".process"),
        (".process 45", ""),
        (".sizeparam rsrc 5e2 5e4 STEP 64", ".sizeparam rsrc 5e4 5e2 STEP 64"),
        (".sizeparam rsrc 5e2 5e4 STEP 64", ".sizeparam rsrc xx 5e4 STEP 64"),
        (".sizeparam rsrc 5e2 5e4 STEP 64", ".sizeparam rsrc 5e2 5e4 STEP 0"),
        (
            ".sizeparam rsrc 5e2 5e4 STEP 64",
            ".sizeparam rsrc 5e2 5e4 STEP 64\n.sizeparam rsrc 5e2 5e4 STEP 64",
        ),
        (".sizeparam rsrc 5e2 5e4 STEP 64", ".sizeparam rsrc 5e2 5e4 STEP nope"),
        (".sizeparam rsrc 5e2 5e4 STEP 64", ".sizeparam"),
        (".goal gain_db <= -45", ".goal gain_db ~= -45"),
        (".goal gain_db <= -45", ".goal resistance <= -45"),
        (".goal gain_db <= -45", ".goal gain_db <= banana"),
        ("ROUT out 0 {rout}", "ROUT out 0 {undeclared}"),
        ("M1 n1 n1 0 0 nch W={w_n} L=1.8e-7", "M1 n1 n1 0 0 nch W={w_n}"),
    ];
    for (from, to) in mutants {
        assert!(base.contains(from), "mutation target {from:?} missing from base deck");
        let mutated = base.replace(from, to);
        let result = std::panic::catch_unwind(|| NetlistBench::compile(&mutated));
        let compiled = result.unwrap_or_else(|_| panic!("compile panicked on {to:?}"));
        assert!(compiled.is_err(), "mutant {to:?} compiled");
        let msg = compiled.err().unwrap().to_string();
        assert!(!msg.is_empty(), "empty error for {to:?}");
    }
    // Goal-less and axis-less decks are rejected with a naming error.
    let no_goals: String =
        base.lines().filter(|l| !l.starts_with(".goal")).collect::<Vec<_>>().join("\n");
    assert!(NetlistBench::compile(&no_goals).unwrap_err().to_string().contains("goal"));
    let no_axes: String =
        base.lines().filter(|l| !l.starts_with(".sizeparam")).collect::<Vec<_>>().join("\n");
    assert!(NetlistBench::compile(&no_axes).is_err());
}
