//! `run_force` — the `forcecompile && a.out` of this reproduction.
//!
//! Preprocess a Force-language source file for a chosen machine
//! personality, run it with a force of N processes, and print the
//! program's output plus the machine profile.
//!
//! ```sh
//! cargo run --example run_force -- examples/force_src/sum.force
//! cargo run --example run_force -- examples/force_src/pipeline.force --machine hep --nproc 4
//! cargo run --example run_force -- prog.force --emit          # show expanded code
//! cargo run --example run_force -- prog.force --intermediate  # show the §4.2 form
//! ```

use std::time::Duration;

use the_force::fortran::{Engine, RunOutput};
use the_force::machdep::{Machine, MachineId, RunOptions};
use the_force::{compile_force_source, prep, ForceError};

/// How long every process of the force may sit parked with nothing
/// moving before the run ends with the deadlock verdict: a program that
/// wedges (a `Critical` never closed, say) fails instead of running for
/// ever.  A `.force` program waits for nothing but its own processes.
const WATCHDOG: Duration = Duration::from_millis(500);

/// Preprocess `source` for `machine` and run it with a force of `nproc`
/// processes under the deadlock watchdog.
pub fn run(source: &str, machine: MachineId, nproc: usize) -> Result<RunOutput, ForceError> {
    let expanded = prep::preprocess_cached(source, machine)?;
    let engine = Engine::from_expanded(&expanded, Machine::new(machine))?;
    let options = RunOptions {
        watchdog: Some(WATCHDOG),
        ..RunOptions::default()
    };
    Ok(engine.run_with(nproc, options)?)
}

fn usage() -> ! {
    eprintln!(
        "usage: run_force <file.force> [--machine hep|flex32|encore|sequent|alliant|cray2]\n\
         \x20                           [--nproc N] [--emit] [--intermediate]"
    );
    std::process::exit(2);
}

fn main() {
    let mut file = None;
    let mut machine = MachineId::EncoreMultimax;
    let mut nproc = 4usize;
    let mut emit = false;
    let mut intermediate = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--machine" => {
                let tag = args.next().unwrap_or_else(|| usage());
                machine = MachineId::from_tag(&tag).unwrap_or_else(|| {
                    eprintln!("unknown machine `{tag}`");
                    usage()
                });
            }
            "--nproc" => {
                nproc = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--emit" => emit = true,
            "--intermediate" => intermediate = true,
            _ if file.is_none() && !a.starts_with('-') => file = Some(a),
            _ => usage(),
        }
    }
    let file = file.unwrap_or_else(|| usage());
    let source = std::fs::read_to_string(&file).unwrap_or_else(|e| {
        eprintln!("cannot read {file}: {e}");
        std::process::exit(1);
    });

    if emit || intermediate {
        match compile_force_source(&source, machine) {
            Ok((expanded, _)) => {
                if intermediate {
                    println!("{}", expanded.intermediate);
                } else {
                    println!("{}", expanded.code);
                }
            }
            Err(e) => {
                eprintln!("{file}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    println!(
        "running {file} on the {} with a force of {nproc} processes",
        machine.name()
    );
    match run(&source, machine, nproc) {
        Ok(out) => {
            for line in &out.prints {
                println!("| {line}");
            }
            let s = &out.stats;
            println!(
                "machine profile: {} lock ops, {} syscalls, {} full/empty ops, {} sim cycles",
                s.lock_acquires + s.lock_releases,
                s.syscalls,
                s.fe_produces + s.fe_consumes,
                out.cycles
            );
            if !out.linker_commands.is_empty() {
                println!(
                    "link pass emitted {} linker commands",
                    out.linker_commands.len()
                );
            }
        }
        Err(e) => {
            eprintln!("{file}: {e}");
            std::process::exit(1);
        }
    }
}
