//! Expansions are pinned byte for byte.
//!
//! `tests/golden_expansion.rs` pins one construct with whitespace
//! squeezed; this pins everything else: for the front-end corpus
//! (`tests/support/corpus.rs`, every sed-pass keyword at least once) on
//! all six personalities, an FNV-1a digest of the final `code`, of the
//! machine-independent `intermediate`, and of the recorded lists equals
//! a constant.  The constants were recorded with the `Vec<char>` m4
//! engine of PR 18, *before* the byte-scanning engine replaced it, so a
//! pass here means the new engine emits the old one's bytes.
//!
//! A digest says *that* an expansion moved, not where.  To see where:
//! check out a commit where this test passes, run
//! `cargo test --test expansion_identity -- --ignored record`, which
//! leaves every expansion under `target/tmp/expansion_identity/`, come
//! back, and run the test again — on a mismatch it prints the first
//! differing line of each side.  `record` also prints the `PINNED` table
//! in source form, for a change that moves an expansion on purpose.

mod support;

use std::fmt::Write as _;
use std::path::PathBuf;

use support::corpus::corpus;
use support::{fnv1a, run_checked};
use the_force::machdep::MachineId;
use the_force::prep::{preprocess, ExpandedProgram, VarClass};

/// The recorded lists as one text, a line per entry.
fn lists_text(p: &ExpandedProgram) -> String {
    let mut out = format!("main {}\n", p.main_unit);
    for (label, list) in [
        ("units", &p.units),
        ("env_cells", &p.env_cells),
        ("env_locks", &p.env_locks),
        ("user_locks", &p.user_locks),
        ("async_vars", &p.async_vars),
        ("externf", &p.externf),
    ] {
        for item in list {
            writeln!(out, "{label} {item}").unwrap();
        }
    }
    for d in &p.decls {
        let class = match d.class {
            VarClass::Shared => "shared",
            VarClass::Private => "private",
            VarClass::Async => "async",
        };
        writeln!(
            out,
            "decl {} {class} {} {} {:?}",
            d.unit, d.ty, d.name, d.dims
        )
        .unwrap();
    }
    out
}

/// One program's pins: the intermediate form (the same on every
/// machine), then `(code, lists)` per personality in `MachineId::all()`
/// order.
type Pins = (&'static str, u64, [(u64, u64); 6]);

/// Where `record` leaves the expansions for a later mismatch report.
fn reference_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("expansion_identity")
}

/// The three pinned texts of one expansion, by file-name suffix.
fn texts(p: &ExpandedProgram) -> [(&'static str, String); 3] {
    [
        ("code", p.code.clone()),
        ("intermediate", p.intermediate.clone()),
        ("lists", lists_text(p)),
    ]
}

/// "line N: recorded `…`, now `…`" against the recorded reference, or
/// how to get one.
fn first_difference(file: &str, now: &str) -> String {
    let path = reference_dir().join(file);
    let Ok(recorded) = std::fs::read_to_string(&path) else {
        return format!(
            "no reference at {} (see this file's header)",
            path.display()
        );
    };
    let (mut old, mut new) = (recorded.lines(), now.lines());
    for n in 1.. {
        match (old.next(), new.next()) {
            (None, None) => break,
            (a, b) if a == b => {}
            (a, b) => {
                return format!(
                    "line {n}:\n  recorded: {}\n  now:      {}",
                    a.unwrap_or("<end of text>"),
                    b.unwrap_or("<end of text>")
                )
            }
        }
    }
    "same lines; the texts differ in their line endings".to_string()
}

#[test]
fn every_expansion_equals_its_recorded_digest() {
    let corpus = corpus();
    assert_eq!(
        corpus.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        PINNED.iter().map(|(n, ..)| *n).collect::<Vec<_>>(),
        "the corpus and the pinned table list the same programs"
    );
    let mut moved = Vec::new();
    for ((name, source), (_, intermediate, per_machine)) in corpus.iter().zip(PINNED) {
        for (id, (code, lists)) in MachineId::all().into_iter().zip(per_machine) {
            let p =
                preprocess(source, id).unwrap_or_else(|e| panic!("{name} on {}: {e}", id.name()));
            for ((what, text), pinned) in texts(&p).iter().zip([code, intermediate, lists]) {
                if fnv1a(text) != *pinned {
                    moved.push(format!(
                        "{name} on {}: {what} is {:#018x}, recorded {pinned:#018x}; {}",
                        id.name(),
                        fnv1a(text),
                        first_difference(&format!("{name}.{id:?}.{what}"), text)
                    ));
                }
            }
        }
    }
    assert!(
        moved.is_empty(),
        "{} expansion(s) moved:\n{}",
        moved.len(),
        moved.join("\n")
    );
}

/// Print `PINNED` for the engine this runs on and leave its expansions
/// under [`reference_dir`].
#[test]
#[ignore = "records the reference; see the header"]
fn record() {
    let dir = reference_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let mut table = String::from("const PINNED: &[Pins] = &[\n");
    for (name, source) in corpus() {
        let mut intermediate = None;
        let mut per_machine = String::new();
        for id in MachineId::all() {
            let p = preprocess(source, id).unwrap();
            for (what, text) in texts(&p) {
                std::fs::write(dir.join(format!("{name}.{id:?}.{what}")), text).unwrap();
            }
            let digest = fnv1a(&p.intermediate);
            assert_eq!(*intermediate.get_or_insert(digest), digest);
            writeln!(
                per_machine,
                "            ({:#018x}, {:#018x}),",
                fnv1a(&p.code),
                fnv1a(&lists_text(&p))
            )
            .unwrap();
        }
        writeln!(
            table,
            "    (\n        {name:?},\n        {:#018x},\n        [\n{per_machine}        ],\n    ),",
            intermediate.unwrap()
        )
        .unwrap();
    }
    println!("{table}];");
}

/// The corpus is not only expandable: every program loads and runs, with
/// the production VM and the reference interpreter agreeing.
#[test]
fn the_corpus_runs_on_every_personality() {
    for (name, source) in corpus() {
        for id in MachineId::all() {
            let out = run_checked(source, id, 2);
            assert!(out.stats.processes_created >= 2, "{name} on {}", id.name());
        }
    }
}

const PINNED: &[Pins] = &[
    (
        "sum",
        0x8f8c4398d992a0a9,
        [
            (0xeb0074702f28d1e0, 0x1f782295aabcaf0e),
            (0xb7c69513ee4c6ef8, 0x1f782295aabcaf0e),
            (0x97bc123ed9e16846, 0x1f782295aabcaf0e),
            (0x23262d07a3a59aea, 0x1f782295aabcaf0e),
            (0x9a9f369acb22ada1, 0x1f782295aabcaf0e),
            (0x76bffc795b3a83ba, 0x1f782295aabcaf0e),
        ],
    ),
    (
        "dotprod",
        0xef5ddabc0a9ebd0c,
        [
            (0x4f5fd70903a655e9, 0x276d2d5e4524fb19),
            (0x6a1cbc70e6be2837, 0x276d2d5e4524fb19),
            (0xe80e0479dbf91de1, 0x276d2d5e4524fb19),
            (0x74bf5293f2ca6871, 0x276d2d5e4524fb19),
            (0x379ccd9e8be1701a, 0x276d2d5e4524fb19),
            (0x38c2ccd97a2cf411, 0x276d2d5e4524fb19),
        ],
    ),
    (
        "pipeline",
        0x5db8c3836715d366,
        [
            (0x4a105ca9fe92ef45, 0x10d3434cd7cd731a),
            (0x40da72959ebc80ed, 0xde4272f0373d3bac),
            (0xb2b74768f43bb4ab, 0xde4272f0373d3bac),
            (0xdafe5461bc16016f, 0xde4272f0373d3bac),
            (0x3b265ffdd9390d1e, 0xde4272f0373d3bac),
            (0x3b1753c66366fa29, 0xde4272f0373d3bac),
        ],
    ),
    (
        "ksum",
        0x8e9e13e2bc076588,
        [
            (0x6320387398d45e7b, 0xb1d8685dd6fbaf7d),
            (0x71d8050200d7e69b, 0xb1d8685dd6fbaf7d),
            (0x5c4ceb63c73430a5, 0xb1d8685dd6fbaf7d),
            (0x37a69d7e8bb2d86d, 0xb1d8685dd6fbaf7d),
            (0xa77443fe04c9412c, 0xb1d8685dd6fbaf7d),
            (0x181beb2cd7d0407d, 0xb1d8685dd6fbaf7d),
        ],
    ),
    (
        "fill",
        0x91a646b042208198,
        [
            (0xee2d9fe9ac889a0d, 0xd69cc0f9e62a3f66),
            (0xba191d59545fd4a9, 0xd69cc0f9e62a3f66),
            (0xed392e72fc824bdf, 0xd69cc0f9e62a3f66),
            (0x2eabc649f8c43cbb, 0xd69cc0f9e62a3f66),
            (0x46aeb02e08cc2296, 0xd69cc0f9e62a3f66),
            (0x87af478e8cad44cf, 0xd69cc0f9e62a3f66),
        ],
    ),
    (
        "ring",
        0xcc0fb23e8f1f9a1e,
        [
            (0xd550d81aecdf0384, 0x98fc44503efa2f66),
            (0x07255fcff3624ad2, 0xeb572b8ab5017c46),
            (0x8dd9d6d027262766, 0xeb572b8ab5017c46),
            (0x9b2f68e7aebbee20, 0xeb572b8ab5017c46),
            (0x7682226e3dfd1825, 0xeb572b8ab5017c46),
            (0x148cf03bc3777bae, 0xeb572b8ab5017c46),
        ],
    ),
    (
        "sect",
        0x4c95a1895df8200c,
        [
            (0x28ea67a7682ff52e, 0xf95601321802b137),
            (0x0841983b3de7a294, 0xf95601321802b137),
            (0x9e9a87879dcca726, 0xf95601321802b137),
            (0x66276cd3574396b6, 0xf95601321802b137),
            (0x722bead65108f939, 0xf95601321802b137),
            (0x9e6de358d23298f8, 0xf95601321802b137),
        ],
    ),
    (
        "grid",
        0xafc25c5b22e1a65a,
        [
            (0x9b52f19a4142bed5, 0x065cf7b8b61edf84),
            (0xaa0cdb1a7bbe335d, 0x065cf7b8b61edf84),
            (0x4866685f8b2bbb2b, 0x065cf7b8b61edf84),
            (0x3efb094108ae13b3, 0x065cf7b8b61edf84),
            (0xb33249972f9e97d6, 0x065cf7b8b61edf84),
            (0x3391acce237eec65, 0x065cf7b8b61edf84),
        ],
    ),
    (
        "subs",
        0xede1a54499743558,
        [
            (0xefb195b66473f496, 0x17029318cb750a82),
            (0xd836f33880d1449c, 0x17029318cb750a82),
            (0xa14147098a1db5ee, 0x17029318cb750a82),
            (0x72f05267d3c45f66, 0x17029318cb750a82),
            (0xc909abe99fc4eb89, 0x17029318cb750a82),
            (0xf8432a1137b9fa34, 0x17029318cb750a82),
        ],
    ),
    (
        "sched",
        0xebc2c5531632d349,
        [
            (0xc6e76b29e498e406, 0x6b8bf99f704da783),
            (0x84ec6d9f48e2a93a, 0x6b8bf99f704da783),
            (0x2594cdd16f54de08, 0x6b8bf99f704da783),
            (0xd60b9ca2be91e4cc, 0x6b8bf99f704da783),
            (0xccd951e5058e7d09, 0x6b8bf99f704da783),
            (0x455c945324797402, 0x6b8bf99f704da783),
        ],
    ),
    (
        "do2",
        0x719eab44ea73bfc3,
        [
            (0x3d86ae052d2131d2, 0x304bbda675e8fccc),
            (0xf39500caeada33aa, 0x304bbda675e8fccc),
            (0x64111e1d1a1cb17c, 0x304bbda675e8fccc),
            (0x8640ecc3b1ef14f4, 0x304bbda675e8fccc),
            (0x2916ba6551d075ef, 0x304bbda675e8fccc),
            (0xbf8cb2bbf6065e66, 0x304bbda675e8fccc),
        ],
    ),
    (
        "pcase",
        0x471b9bd66106a68e,
        [
            (0x31758c81ce8e0be8, 0x427e36b1c3b99deb),
            (0x5c2b624a7a515046, 0x427e36b1c3b99deb),
            (0x929dc29675ca6680, 0x427e36b1c3b99deb),
            (0x35421f01f92d9e90, 0x427e36b1c3b99deb),
            (0xf29aefbca41e27fd, 0x427e36b1c3b99deb),
            (0x6092142298a54f54, 0x427e36b1c3b99deb),
        ],
    ),
    (
        "async_scalar",
        0x53d09066bb72d345,
        [
            (0x68c31a623121d694, 0x49f64809d6c8f685),
            (0xedeedab222b8b532, 0x3d3e0a83e52ad92b),
            (0xfa84bfc204ce059c, 0x3d3e0a83e52ad92b),
            (0xe7f200c2501b92aa, 0x3d3e0a83e52ad92b),
            (0x8221470922831447, 0x3d3e0a83e52ad92b),
            (0x1a4288f279ae169c, 0x3d3e0a83e52ad92b),
        ],
    ),
    (
        "async_array",
        0x2bc48feab0eb944a,
        [
            (0xb7eba419f97f2b2e, 0xafbb06bbcd5fdce1),
            (0x6bfe949cae189343, 0x4338baffdbd6afa7),
            (0xe36a93a400688d99, 0x4338baffdbd6afa7),
            (0x1d35d68a9ebd7f71, 0x4338baffdbd6afa7),
            (0x6651b58a3a5f62d8, 0x4338baffdbd6afa7),
            (0x7edfe283261f426b, 0x4338baffdbd6afa7),
        ],
    ),
];
