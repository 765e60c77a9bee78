//! Level 2 — the machine-dependent macro sets (§4.1).
//!
//! "The following is a list of the machine dependent macros, and these are
//! the only ones we use to implement all higher level language
//! constructs."  One macro set per machine defines:
//!
//! * `lock(var)` / `unlock(var)` — the generic lock operations, mapped to
//!   the vendor primitive: test&set (`ZZTSLCK`) on Sequent, Encore and
//!   Alliant; operating-system locks (`ZZOSLCK`) on the Cray-2; combined
//!   spin-then-OS locks (`ZZCBLCK`) on the Flex/32; hardware full/empty
//!   accesses (`ZZFELCK`) on the HEP;
//! * `zzprod` / `zzcons` / `zzvoid` / `zzcopyf` — the asynchronous-variable
//!   operations: the two-lock protocol of §4.2 everywhere except the HEP,
//!   which maps them straight onto its hardware full/empty cells
//!   (`ZZHPRD`/`ZZHCON`/`ZZHVD`/`ZZHCPY`).
//!
//! The mnemonic encodes the mechanism, so the interpreter can verify that
//! code preprocessed for machine X is actually running on machine X — the
//! reason a Force binary, unlike a Force *source*, is not portable.

use std::sync::OnceLock;

use force_machdep::{LockKind, MachineId, MachineSpec};

use crate::m4::{MacroTable, M4};

/// The intrinsic call names for each vendor lock kind: `(lock, unlock)`.
pub fn lock_mnemonics(kind: LockKind) -> (&'static str, &'static str) {
    match kind {
        LockKind::Spin => ("ZZTSLCK", "ZZTSUNL"),
        LockKind::Syscall => ("ZZOSLCK", "ZZOSUNL"),
        LockKind::Combined => ("ZZCBLCK", "ZZCBUNL"),
        LockKind::FullEmpty => ("ZZFELCK", "ZZFEUNL"),
    }
}

/// The spawn intrinsic name for each machine's process-creation model.
pub fn spawn_mnemonic(id: MachineId) -> &'static str {
    use force_machdep::ProcessModel::*;
    match MachineSpec::of(id).process_model {
        ForkJoinCopy => "ZZFORKJ",
        SharedDataFork => "ZZSFORK",
        SpawnByCall => "ZZSPAWN",
    }
}

/// Machine `id`'s macro set, `(name, body)`.
fn machine_layer(id: MachineId) -> Vec<(&'static str, String)> {
    let spec = MachineSpec::of(id);
    let (lck, unl) = lock_mnemonics(spec.vendor_locks);
    let mut layer = vec![
        ("lock", format!("CALL {lck}($1)")),
        ("unlock", format!("CALL {unl}($1)")),
    ];
    let asyncs: [(&str, &str); 5] = if spec.hardware_fullempty {
        // HEP: asynchronous variables live directly on hardware full/empty
        // cells; no auxiliary locks exist at all.
        [
            ("zzprod", "CALL ZZHPRD($1, $2)"),
            ("zzcons", "CALL ZZHCON($1, $2)"),
            ("zzvoid", "CALL ZZHVD($1)"),
            ("zzcopyf", "CALL ZZHCPY($1, $2)"),
            ("zzisfull", "ZZHISF($1)"),
        ]
    } else {
        // Everyone else: the two-lock (E, F) protocol of §4.2.  The E/F
        // lock names derive from the *variable* name so an asynchronous
        // array element `C(I)` uses `CZZE(I)`/`CZZF(I)` — one lock pair
        // per element, the scarce-lock pressure §4.1.3 warns about.
        // empty = E locked, F unlocked;  full = F locked, E unlocked.
        [
            (
                "zzprod",
                "lock(zzconcat(zzname($1), `ZZF')zzsubs($1))
      $1 = $2
      unlock(zzconcat(zzname($1), `ZZE')zzsubs($1))",
            ),
            (
                "zzcons",
                "lock(zzconcat(zzname($1), `ZZE')zzsubs($1))
      $2 = $1
      unlock(zzconcat(zzname($1), `ZZF')zzsubs($1))",
            ),
            // Void must work from any state; its try-lock dance is a runtime
            // service on every machine.
            (
                "zzvoid",
                "CALL ZZVOIDL(zzconcat(zzname($1), `ZZE')zzsubs($1), zzconcat(zzname($1), `ZZF')zzsubs($1))",
            ),
            // Copy reads a full variable and leaves it full: hold E briefly.
            (
                "zzcopyf",
                "lock(zzconcat(zzname($1), `ZZE')zzsubs($1))
      $2 = $1
      unlock(zzconcat(zzname($1), `ZZE')zzsubs($1))",
            ),
            // Testing the state reads the E lock: full = E unlocked.
            (
                "zzisfull",
                "ZZISFL(zzconcat(zzname($1), `ZZE')zzsubs($1))",
            ),
        ]
    };
    layer.extend(asyncs.map(|(name, body)| (name, body.to_string())));
    layer
}

/// Machine `id`'s macro set as a table, built on first use.
pub(crate) fn machine_macros(id: MachineId) -> &'static MacroTable {
    static TABLES: [OnceLock<MacroTable>; 6] = [const { OnceLock::new() }; 6];
    let slot = MachineId::all()
        .iter()
        .position(|&m| m == id)
        .expect("`all` lists every machine");
    TABLES[slot].get_or_init(|| MacroTable::new(&machine_layer(id)))
}

/// Install machine `id`'s macro set into an m4 engine (the second-pass
/// engine, run over the level-1 output).
pub fn install_machine_macros(m4: &mut M4, id: MachineId) {
    m4.install(machine_macros(id));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expand_on(id: MachineId, src: &str) -> String {
        let mut m4 = M4::new();
        install_machine_macros(&mut m4, id);
        m4.expand(src).unwrap()
    }

    #[test]
    fn each_machine_maps_lock_to_its_vendor_primitive() {
        let cases = [
            (MachineId::SequentBalance, "CALL ZZTSLCK(BARWIN)"),
            (MachineId::EncoreMultimax, "CALL ZZTSLCK(BARWIN)"),
            (MachineId::AlliantFx8, "CALL ZZTSLCK(BARWIN)"),
            (MachineId::Cray2, "CALL ZZOSLCK(BARWIN)"),
            (MachineId::Flex32, "CALL ZZCBLCK(BARWIN)"),
            (MachineId::Hep, "CALL ZZFELCK(BARWIN)"),
        ];
        for (id, expect) in cases {
            let out = expand_on(id, "      lock(BARWIN)");
            assert_eq!(out.trim(), expect, "{}", id.name());
        }
    }

    #[test]
    fn unlock_mnemonics_match() {
        assert!(expand_on(MachineId::Cray2, "      unlock(X)").contains("CALL ZZOSUNL(X)"));
        assert!(expand_on(MachineId::Hep, "      unlock(X)").contains("CALL ZZFEUNL(X)"));
    }

    #[test]
    fn hep_produce_goes_to_hardware() {
        let out = expand_on(MachineId::Hep, "      zzprod(C, K + 1)");
        assert_eq!(out.trim(), "CALL ZZHPRD(C, K + 1)");
        let out = expand_on(MachineId::Hep, "      zzcons(C, T)");
        assert_eq!(out.trim(), "CALL ZZHCON(C, T)");
    }

    #[test]
    fn other_machines_use_the_two_lock_protocol() {
        let out = expand_on(MachineId::EncoreMultimax, "      zzprod(C, K + 1)");
        // Lock F, write, unlock E — and the inner lock/unlock rescan into
        // the vendor calls.
        assert!(out.contains("CALL ZZTSLCK(CZZF)"), "{out}");
        assert!(out.contains("C = K + 1"), "{out}");
        assert!(out.contains("CALL ZZTSUNL(CZZE)"), "{out}");

        let out = expand_on(MachineId::Cray2, "      zzcons(C, T)");
        assert!(out.contains("CALL ZZOSLCK(CZZE)"), "{out}");
        assert!(out.contains("T = C"), "{out}");
        assert!(out.contains("CALL ZZOSUNL(CZZF)"), "{out}");
    }

    #[test]
    fn void_is_a_runtime_service_off_hep() {
        let out = expand_on(MachineId::Flex32, "      zzvoid(C)");
        assert_eq!(out.trim(), "CALL ZZVOIDL(CZZE, CZZF)");
        let out = expand_on(MachineId::Hep, "      zzvoid(C)");
        assert_eq!(out.trim(), "CALL ZZHVD(C)");
    }

    #[test]
    fn copy_holds_e_briefly_and_leaves_full() {
        let out = expand_on(MachineId::SequentBalance, "      zzcopyf(C, T)");
        assert!(out.contains("CALL ZZTSLCK(CZZE)"), "{out}");
        assert!(out.contains("T = C"), "{out}");
        assert!(out.contains("CALL ZZTSUNL(CZZE)"), "{out}");
        assert!(!out.contains("CZZF"), "copy must not touch F: {out}");
    }

    #[test]
    fn plain_fortran_is_untouched_by_level_two() {
        let src = "      TOTAL = TOTAL + K\n      IF (X .GT. 0) GO TO 10\n";
        assert_eq!(expand_on(MachineId::Cray2, src), src);
    }

    #[test]
    fn spawn_mnemonics_follow_the_process_model() {
        assert_eq!(spawn_mnemonic(MachineId::Hep), "ZZSPAWN");
        assert_eq!(spawn_mnemonic(MachineId::AlliantFx8), "ZZSFORK");
        assert_eq!(spawn_mnemonic(MachineId::EncoreMultimax), "ZZFORKJ");
        assert_eq!(spawn_mnemonic(MachineId::SequentBalance), "ZZFORKJ");
        assert_eq!(spawn_mnemonic(MachineId::Cray2), "ZZFORKJ");
        assert_eq!(spawn_mnemonic(MachineId::Flex32), "ZZFORKJ");
    }
}
