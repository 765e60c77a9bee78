//! Level 1 — the machine-independent statement macros (§4.2).
//!
//! "The statement macros explicitly process the Force language constructs
//! in programs.  They translate them into Fortran code and low level
//! machine dependent macro calls."
//!
//! The definitions installed here expand the `ZZ…` calls produced by the
//! sed pass into Fortran plus calls to the *machine layer* names —
//! `lock(…)`, `unlock(…)`, `zzprod(…)`, `zzcons(…)`, `zzvoid(…)`,
//! `zzcopyf(…)` — which remain unexpanded text after this level (the
//! paper's intermediate form; compare the §4.2 listing) and are resolved
//! by the machine-dependent definitions of
//! [`crate::machdep_macros`] in the second m4 pass.
//!
//! *Internal macros* (the paper's third category) used here:
//! `ZZFULLBAR` (a complete barrier episode) and `ZZPCCLAIM` (the
//! selfscheduled-Pcase claim step).
//!
//! Bookkeeping relies on the engine's recording lists:
//!
//! | list | contents |
//! |---|---|
//! | `units` | program unit names, main first |
//! | `envlocks` | implementation lock variables (`LOOPnnn`, Pcase locks) |
//! | `userlocks` | user lock variables (critical sections) |
//! | `envints` | non-lock environment integers (`K_shared`, Pcase counters) |
//! | `decls` | `unit|class|type|item` per declared Force variable |
//! | `externf` | externally compiled Force subroutines |

use std::sync::OnceLock;

use crate::m4::{MacroTable, M4};

/// The statement-macro layer, `(name, body)`.
const STATEMENT_MACROS: &[(&str, &str)] = &[
    // ---- program structure ------------------------------------------------
    (
        "ZZFORCE",
        "define(`ZZUNIT', `$1')define(`ZZNPV', `$2')define(`ZZMEV', `$3')dnl
zzrecord(`units', `$1')dnl
      SUBROUTINE $1
C --- Force main program $1 (force of $2, ident $3) ---
      INTEGER $3, $2
      COMMON /ZZPENV/ $3, $2",
    ),
    (
        "ZZFORCESUB",
        "define(`ZZUNIT', `$1')define(`ZZNPV', `$3')define(`ZZMEV', `$4')dnl
zzrecord(`units', `$1')dnl
ifelse(`$2', `', `      SUBROUTINE $1', `      SUBROUTINE $1($2)')
C --- Force subroutine $1 (force of $3, ident $4) ---
      INTEGER $4, $3
      COMMON /ZZPENV/ $4, $3",
    ),
    (
        "ZZEXTERNF",
        "zzrecord(`externf', `$1')dnl
C     external Force subroutine $1",
    ),
    ("ZZENDDECL", "C*ZZENVDECL*ZZUNIT"),
    (
        "ZZJOIN",
        "      RETURN
      END",
    ),

    // ---- declarations ------------------------------------------------------
    (
        "ZZSHARED",
        "zzdeclrec(`shared', `$1', `$2')dnl
      $1 $2",
    ),
    (
        "ZZPRIVATE",
        "zzdeclrec(`private', `$1', `$2')dnl
      $1 $2",
    ),
    (
        "ZZASYNC",
        "zzdeclrec(`async', `$1', `$2')dnl
      $1 $2",
    ),

    // ---- internal macros ----------------------------------------------------
    // A complete barrier episode (entry + exit), §4.2's two-lock protocol.
    (
        "ZZFULLBAR",
        "      lock(BARWIN)
      ZZNBAR = ZZNBAR + 1
      IF (ZZNBAR .EQ. ZZNPV) THEN
      unlock(BARWOT)
      ELSE
      unlock(BARWIN)
      END IF
      lock(BARWOT)
      ZZNBAR = ZZNBAR - 1
      IF (ZZNBAR .EQ. 0) THEN
      unlock(BARWIN)
      ELSE
      unlock(BARWOT)
      END IF",
    ),

    // Internal: the barrier *exit* phase alone — pairs with an entry
    // emitted earlier (selfscheduled constructs enter at their top and
    // exit at their End).
    (
        "ZZBAREXIT",
        "      lock(BARWOT)
      ZZNBAR = ZZNBAR - 1
      IF (ZZNBAR .EQ. 0) THEN
      unlock(BARWIN)
      ELSE
      unlock(BARWOT)
      END IF",
    ),

    // ---- barrier statement ---------------------------------------------------
    // The section between Barrier and End barrier is executed by the last
    // arriver while every other process is held at `lock(BARWOT)`.
    (
        "ZZBARRIER",
        "C barrier entry code
      lock(BARWIN)
C report arrival of processes
      ZZNBAR = ZZNBAR + 1
      IF (ZZNBAR .EQ. ZZNPV) THEN
C barrier section (one process)",
    ),
    (
        "ZZENDBARRIER",
        "C end barrier section
      unlock(BARWOT)
      ELSE
      unlock(BARWIN)
      END IF
C barrier exit code
      lock(BARWOT)
C report exit of processes
      ZZNBAR = ZZNBAR - 1
      IF (ZZNBAR .EQ. 0) THEN
      unlock(BARWIN)
      ELSE
      unlock(BARWOT)
      END IF",
    ),

    // ---- critical sections -----------------------------------------------------
    (
        "ZZCRITICAL",
        "zzrecord(`userlocks', `$1')pushdef(`ZZCRIT', `$1')dnl
C critical section $1
      lock($1)",
    ),
    (
        "ZZENDCRITICAL",
        "ifelse(`$1', `', `      unlock(defn(`ZZCRIT'))', `      unlock($1)')popdef(`ZZCRIT')",
    ),

    // ---- selfscheduled DO (the §4.2 worked example) ------------------------------
    // ZZDOKIND<label> records which selfscheduling flavour opened the
    // loop (S = one-trip, C = chunked, G = guided) so the shared End
    // statement can emit the matching epilogue.
    (
        "ZZSELFSCHEDDO",
        "define(`ZZDOVAR$1', `$2')define(`ZZDOLAST$1', `$4')define(`ZZDOINCR$1', `$5')dnl
define(`ZZDOKIND$1', `S')dnl
zzrecord(`envlocks', `LOOP$1')zzrecord(`envints', `$2_shared')dnl
C loop entry code
      lock(BARWIN)
      IF (ZZNBAR .EQ. 0) THEN
C initialize loop index
      $2_shared = $3
      END IF
C report arrival of processes
      ZZNBAR = ZZNBAR + 1
      IF (ZZNBAR .EQ. ZZNPV) THEN
      unlock(BARWOT)
      ELSE
      unlock(BARWIN)
      END IF
C self scheduled loop index distribution
$1    lock(LOOP$1)
C get next index value
      $2 = $2_shared
      $2_shared = $2 + $5
      unlock(LOOP$1)
C test for completion
      IF ((($5) .GT. 0 .AND. $2 .LE. ($4)) .OR. (($5) .LT. 0 .AND. $2 .GE. ($4))) THEN",
    ),
    // The epilogue depends on the flavour: one-trip loops go straight
    // back to the claim; chunked/guided loops first walk the remaining
    // trips of the claimed chunk (counter ZZC<label>, bound stored by
    // the opening macro).
    (
        "ZZENDSELFSCHEDDO",
        "ifelse(defn(`ZZDOKIND$1'), `C', `      ZZC$1 = ZZC$1 + 1
      IF (ZZC$1 .LT. (ZZDOCHUNKN$1)) GO TO ZZDOBODY$1
      GO TO $1
      END IF', `ifelse(defn(`ZZDOKIND$1'), `G', `      ZZC$1 = ZZC$1 + 1
      IF (ZZC$1 .LT. ZZK$1) GO TO ZZDOBODY$1
      GO TO $1
      END IF', `      GO TO $1
      END IF')')
C loop exit code
      lock(BARWOT)
C report exit of processes
      ZZNBAR = ZZNBAR - 1
      IF (ZZNBAR .EQ. 0) THEN
      unlock(BARWIN)
      ELSE
      unlock(BARWOT)
      END IF",
    ),

    // ---- chunked / guided selfscheduled DO (scheduling-plane extension) ----------
    // `Selfsched DO n v = e1, e2[, e3] CHUNK c`: same barrier entry and
    // locked claim as §4.2, but each visit to the shared index takes `c`
    // consecutive trips (at least one: the sed pass refuses a literal `c`
    // below 1 and clamps any other); the private counter ZZC<label> then
    // walks them without re-acquiring LOOP<label>.  A chunk that crosses
    // the bound simply fails the per-trip completion test, which exits
    // the loop.
    (
        "ZZSELFSCHEDDOC",
        "define(`ZZDOVAR$1', `$2')define(`ZZDOLAST$1', `$4')define(`ZZDOINCR$1', `$5')dnl
define(`ZZDOKIND$1', `C')define(`ZZDOCHUNKN$1', `$6')define(`ZZDOBODY$1', zzgensym(`97'))dnl
zzrecord(`envlocks', `LOOP$1')zzrecord(`envints', `$2_shared')dnl
zzrecord(`privints', `ZZV$1')zzrecord(`privints', `ZZC$1')dnl
C chunked selfscheduled loop entry
      lock(BARWIN)
      IF (ZZNBAR .EQ. 0) THEN
C initialize loop index
      $2_shared = $3
      END IF
C report arrival of processes
      ZZNBAR = ZZNBAR + 1
      IF (ZZNBAR .EQ. ZZNPV) THEN
      unlock(BARWOT)
      ELSE
      unlock(BARWIN)
      END IF
C claim ($6) consecutive index values per visit
$1    lock(LOOP$1)
      ZZV$1 = $2_shared
      $2_shared = ZZV$1 + ($6)*($5)
      unlock(LOOP$1)
      ZZC$1 = 0
ZZDOBODY$1 CONTINUE
      $2 = ZZV$1 + ZZC$1*($5)
C test for completion
      IF ((($5) .GT. 0 .AND. $2 .LE. ($4)) .OR. (($5) .LT. 0 .AND. $2 .GE. ($4))) THEN",
    ),
    // `Selfsched DO n v = e1, e2[, e3] GUIDED`: the chunk size tapers with
    // the remaining trip count — MAX(1, remaining/(2*NP)) — so early
    // claims are large and the tail self-balances.
    (
        "ZZSELFSCHEDDOG",
        "define(`ZZDOVAR$1', `$2')define(`ZZDOLAST$1', `$4')define(`ZZDOINCR$1', `$5')dnl
define(`ZZDOKIND$1', `G')define(`ZZDOBODY$1', zzgensym(`97'))dnl
zzrecord(`envlocks', `LOOP$1')zzrecord(`envints', `$2_shared')dnl
zzrecord(`privints', `ZZV$1')zzrecord(`privints', `ZZR$1')dnl
zzrecord(`privints', `ZZK$1')zzrecord(`privints', `ZZC$1')dnl
C guided selfscheduled loop entry
      lock(BARWIN)
      IF (ZZNBAR .EQ. 0) THEN
C initialize loop index
      $2_shared = $3
      END IF
C report arrival of processes
      ZZNBAR = ZZNBAR + 1
      IF (ZZNBAR .EQ. ZZNPV) THEN
      unlock(BARWOT)
      ELSE
      unlock(BARWIN)
      END IF
C claim a tapering chunk of index values
$1    lock(LOOP$1)
      ZZV$1 = $2_shared
      ZZR$1 = ((($4) - ZZV$1) + ($5)) / ($5)
      ZZK$1 = MAX(1, ZZR$1 / (2*ZZNPV))
      $2_shared = ZZV$1 + ZZK$1*($5)
      unlock(LOOP$1)
      ZZC$1 = 0
ZZDOBODY$1 CONTINUE
      $2 = ZZV$1 + ZZC$1*($5)
C test for completion
      IF ((($5) .GT. 0 .AND. $2 .LE. ($4)) .OR. (($5) .LT. 0 .AND. $2 .GE. ($4))) THEN",
    ),

    // ---- prescheduled DO -------------------------------------------------------
    // "completely machine independent, since only the number of executing
    // processes is needed to distribute the index values among processes":
    // cyclic distribution K = start + me*incr, stepping by nproc*incr.
    (
        "ZZPRESCHEDDO",
        "define(`ZZDOVAR$1', `$2')define(`ZZDOLAST$1', `$4')define(`ZZDOINCR$1', `$5')dnl
define(`ZZDOEXIT$1', zzgensym(`99'))dnl
C prescheduled loop over $2
      $2 = ($3) + ZZMEV*($5)
$1    CONTINUE
      IF (.NOT. ((($5) .GT. 0 .AND. $2 .LE. ($4)) .OR. (($5) .LT. 0 .AND. $2 .GE. ($4)))) GO TO ZZDOEXIT$1",
    ),
    (
        "ZZENDPRESCHEDDO",
        "C next prescheduled index
      ZZDOVAR$1 = ZZDOVAR$1 + ZZNPV*(ZZDOINCR$1)
      GO TO $1
ZZDOEXIT$1 CONTINUE
C prescheduled loop exit barrier
ZZFULLBAR",
    ),

    // ---- doubly nested DOALL: index pairs (§3.3) ---------------------------------
    // $1 label; $2..$5 outer var/from/to/step; $6..$9 inner var/from/to/step.
    // The pair space is linearized: trip T of N1*N2 maps to
    //   outer = a1 + (T / N2)*c1,  inner = a2 + MOD(T, N2)*c2.
    (
        "ZZSELFSCHEDDO2",
        "define(`ZZDOEXIT$1', zzgensym(`99'))dnl
zzrecord(`envlocks', `LOOP$1')zzrecord(`envints', `ZZT$1_shared')dnl
C doubly nested selfscheduled loop entry
      lock(BARWIN)
      IF (ZZNBAR .EQ. 0) THEN
C initialize pair index
      ZZT$1_shared = 0
      END IF
      ZZNBAR = ZZNBAR + 1
      IF (ZZNBAR .EQ. ZZNPV) THEN
      unlock(BARWOT)
      ELSE
      unlock(BARWIN)
      END IF
C pair trip counts
      ZZN1 = MAX(0, (($4) - ($3) + ($5)) / ($5))
      ZZN2 = MAX(0, (($8) - ($7) + ($9)) / ($9))
C self scheduled pair distribution
$1    lock(LOOP$1)
      ZZT = ZZT$1_shared
      ZZT$1_shared = ZZT + 1
      unlock(LOOP$1)
      IF (ZZT .LT. ZZN1 * ZZN2) THEN
      $2 = ($3) + (ZZT / ZZN2) * ($5)
      $6 = ($7) + MOD(ZZT, ZZN2) * ($9)",
    ),
    (
        "ZZENDSELFSCHEDDO2",
        "      GO TO $1
      END IF
C doubly nested loop exit code
ZZBAREXIT",
    ),
    (
        "ZZPRESCHEDDO2",
        "define(`ZZDOEXIT$1', zzgensym(`99'))dnl
C doubly nested prescheduled loop over pairs
      ZZN1 = MAX(0, (($4) - ($3) + ($5)) / ($5))
      ZZN2 = MAX(0, (($8) - ($7) + ($9)) / ($9))
      ZZT = ZZMEV
$1    CONTINUE
      IF (ZZT .GE. ZZN1 * ZZN2) GO TO ZZDOEXIT$1
      $2 = ($3) + (ZZT / ZZN2) * ($5)
      $6 = ($7) + MOD(ZZT, ZZN2) * ($9)",
    ),
    (
        "ZZENDPRESCHEDDO2",
        "C next prescheduled pair
      ZZT = ZZT + ZZNPV
      GO TO $1
ZZDOEXIT$1 CONTINUE
C prescheduled pair loop exit barrier
ZZFULLBAR",
    ),

    // ---- Pcase -------------------------------------------------------------------
    // kind P = prescheduled (blocks allocated cyclically to processes),
    // kind S = selfscheduled (blocks claimed through a locked counter).
    (
        "ZZPCASE",
        "pushdef(`ZZPCKIND', `$1')define(`ZZPCOPEN', `0')dnl
ifelse(`$1', `P', `C prescheduled pcase
      ZZPSEC = -1', `pushdef(`ZZPCID', zzgensym(`ZZPC'))dnl
zzrecord(`envints', ZZPCID)zzrecord(`envlocks', zzconcat(ZZPCID, `L'))dnl
C selfsched pcase entry
      lock(BARWIN)
      IF (ZZNBAR .EQ. 0) THEN
      ZZPCID = 0
      END IF
      ZZNBAR = ZZNBAR + 1
      IF (ZZNBAR .EQ. ZZNPV) THEN
      unlock(BARWOT)
      ELSE
      unlock(BARWIN)
      END IF
      ZZPSEC = -1
ZZPCCLAIM')",
    ),
    // Internal: claim the next selfscheduled pcase section number.
    (
        "ZZPCCLAIM",
        "      lock(zzconcat(ZZPCID, `L'))
      ZZNXT = ZZPCID
      ZZPCID = ZZPCID + 1
      unlock(zzconcat(ZZPCID, `L'))",
    ),
    // Internal: close the currently open section, if any.
    (
        "ZZPCCLOSE",
        "ifelse(ZZPCOPEN, `1', `      END IF
ifelse(defn(`ZZPCKIND'), `S', `ZZPCCLAIM
')      END IF
')dnl",
    ),
    (
        "ZZUSECT",
        "ZZPCCLOSE()define(`ZZPCOPEN', `1')dnl
C pcase section
      ZZPSEC = ZZPSEC + 1
ifelse(defn(`ZZPCKIND'), `P', `      IF (MOD(ZZPSEC, ZZNPV) .EQ. ZZMEV) THEN', `      IF (ZZPSEC .EQ. ZZNXT) THEN')
      IF (.TRUE.) THEN",
    ),
    (
        "ZZCSECT",
        "ZZPCCLOSE()define(`ZZPCOPEN', `1')dnl
C conditional pcase section
      ZZPSEC = ZZPSEC + 1
ifelse(defn(`ZZPCKIND'), `P', `      IF (MOD(ZZPSEC, ZZNPV) .EQ. ZZMEV) THEN', `      IF (ZZPSEC .EQ. ZZNXT) THEN')
      IF ($1) THEN",
    ),
    (
        "ZZENDPCASE",
        "ZZPCCLOSE()dnl
ifelse(defn(`ZZPCKIND'), `S', `C end selfsched pcase (exit the entry barrier)
ZZBAREXIT
popdef(`ZZPCID')', `C end pcase barrier
ZZFULLBAR')popdef(`ZZPCKIND')dnl",
    ),

    // ---- asynchronous variable operations -------------------------------------
    // Level 1 leaves the produce/consume mechanism to the machine layer:
    // the HEP maps these to hardware full/empty accesses, every other
    // machine to the two-lock protocol (§4.2).
    ("ZZPRODUCE", "      zzprod($1, `$2')"),
    ("ZZCONSUME", "      zzcons($1, $2)"),
    ("ZZVOID", "      zzvoid($1)"),
    ("ZZCOPYF", "      zzcopyf($1, $2)"),
];

/// The statement macros as a table, built on first use.
pub(crate) fn statement_macros() -> &'static MacroTable {
    static TABLE: OnceLock<MacroTable> = OnceLock::new();
    TABLE.get_or_init(|| MacroTable::new(STATEMENT_MACROS))
}

/// Install the statement-macro layer into an m4 engine.
pub fn install_statement_macros(m4: &mut M4) {
    m4.install(statement_macros());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::m4::M4;

    fn engine() -> M4 {
        let mut m4 = M4::new();
        install_statement_macros(&mut m4);
        m4
    }

    fn expand(src: &str) -> String {
        engine().expand(src).unwrap()
    }

    #[test]
    fn force_header_emits_subroutine_and_private_env() {
        let out = expand("ZZFORCE(MAIN, NP, ME)");
        assert!(out.contains("SUBROUTINE MAIN"), "{out}");
        assert!(out.contains("COMMON /ZZPENV/ ME, NP"), "{out}");
    }

    #[test]
    fn barrier_brackets_a_single_process_section() {
        let out = expand("ZZFORCE(M, NP, ME)\nZZBARRIER\n      TOTAL = 0\nZZENDBARRIER");
        assert!(out.contains("lock(BARWIN)"), "{out}");
        assert!(out.contains("IF (ZZNBAR .EQ. NP) THEN"), "{out}");
        assert!(out.contains("TOTAL = 0"), "{out}");
        assert!(out.contains("unlock(BARWOT)"), "{out}");
        assert!(out.contains("ZZNBAR = ZZNBAR - 1"), "{out}");
    }

    #[test]
    fn selfsched_do_matches_the_papers_expansion_shape() {
        let src = "ZZFORCE(M, NP, ME)\nZZSELFSCHEDDO(100, K, START, LAST, INCR)\nC LOOPBODY\nZZENDSELFSCHEDDO(100)";
        let out = expand(src);
        // The structural landmarks of the §4.2 listing, in order:
        let landmarks = [
            "lock(BARWIN)",
            "IF (ZZNBAR .EQ. 0) THEN",
            "K_shared = START",
            "ZZNBAR = ZZNBAR + 1",
            "IF (ZZNBAR .EQ. NP) THEN",
            "unlock(BARWOT)",
            "unlock(BARWIN)",
            "100    lock(LOOP100)",
            "K = K_shared",
            "K_shared = K + INCR",
            "unlock(LOOP100)",
            "C LOOPBODY",
            "GO TO 100",
            "lock(BARWOT)",
            "ZZNBAR = ZZNBAR - 1",
        ];
        let mut pos = 0;
        for lm in landmarks {
            let found = out[pos..]
                .find(lm)
                .unwrap_or_else(|| panic!("landmark `{lm}` missing or out of order in:\n{out}"));
            pos += found + lm.len();
        }
    }

    #[test]
    fn selfsched_records_its_environment_variables() {
        let mut m4 = engine();
        m4.expand("ZZFORCE(M, NP, ME)\nZZSELFSCHEDDO(100, K, 1, 10, 1)\nZZENDSELFSCHEDDO(100)")
            .unwrap();
        assert!(m4.recorded("envlocks").contains(&"LOOP100".to_string()));
        assert!(m4.recorded("envints").contains(&"K_shared".to_string()));
    }

    #[test]
    fn chunked_selfsched_do_claims_and_walks_a_chunk() {
        let src = "ZZFORCE(M, NP, ME)\nZZSELFSCHEDDOC(100, K, `1', `N', `1', `4')\nC LOOPBODY\nZZENDSELFSCHEDDO(100)";
        let out = expand(src);
        let landmarks = [
            "lock(BARWIN)",
            "K_shared = 1",
            // claim 4 indices under the loop lock
            "100    lock(LOOP100)",
            "ZZV100 = K_shared",
            "K_shared = ZZV100 + (4)*(1)",
            "unlock(LOOP100)",
            "ZZC100 = 0",
            "971 CONTINUE",
            "K = ZZV100 + ZZC100*(1)",
            "C LOOPBODY",
            // walk the chunk, then go claim another
            "ZZC100 = ZZC100 + 1",
            "IF (ZZC100 .LT. (4)) GO TO 971",
            "GO TO 100",
            "lock(BARWOT)",
        ];
        let mut pos = 0;
        for lm in landmarks {
            let found = out[pos..]
                .find(lm)
                .unwrap_or_else(|| panic!("landmark `{lm}` missing or out of order in:\n{out}"));
            pos += found + lm.len();
        }
    }

    #[test]
    fn guided_selfsched_do_tapers_its_chunk() {
        let src = "ZZFORCE(M, NP, ME)\nZZSELFSCHEDDOG(9, K, `1', `N', `1')\nC LOOPBODY\nZZENDSELFSCHEDDO(9)";
        let out = expand(src);
        // chunk computed from the remaining trips under the lock
        assert!(out.contains("ZZR9 = (((N) - ZZV9) + (1)) / (1)"), "{out}");
        assert!(out.contains("ZZK9 = MAX(1, ZZR9 / (2*NP))"), "{out}");
        assert!(out.contains("K_shared = ZZV9 + ZZK9*(1)"), "{out}");
        assert!(out.contains("IF (ZZC9 .LT. ZZK9) GO TO 971"), "{out}");
        assert!(out.contains("GO TO 9"), "{out}");
    }

    #[test]
    fn mixed_selfsched_flavours_each_get_their_own_epilogue() {
        // A plain loop following a chunked one must keep the plain §4.2
        // epilogue: the kind marker is per-label.
        let src = "ZZFORCE(M, NP, ME)\n\
                   ZZSELFSCHEDDOC(100, K, `1', `N', `1', `4')\nC B1\nZZENDSELFSCHEDDO(100)\n\
                   ZZSELFSCHEDDO(200, J, `1', `N', `1')\nC B2\nZZENDSELFSCHEDDO(200)";
        let out = expand(src);
        assert!(out.contains("IF (ZZC100 .LT. (4)) GO TO 971"), "{out}");
        // the plain loop's epilogue has no chunk counter
        assert!(!out.contains("ZZC200"), "{out}");
        assert!(out.contains("GO TO 200"), "{out}");
    }

    #[test]
    fn presched_do_distributes_cyclically() {
        let src = "ZZFORCE(M, NP, ME)\nZZPRESCHEDDO(10, I, 1, N, 1)\nC BODY\nZZENDPRESCHEDDO(10)";
        let out = expand(src);
        assert!(out.contains("I = (1) + ME*(1)"), "{out}");
        assert!(out.contains("I = I + NP*(1)"), "{out}");
        assert!(out.contains("GO TO 10"), "{out}");
        // exit label generated and used consistently
        let exit_label: Vec<&str> = out.lines().filter(|l| l.contains("GO TO 99")).collect();
        assert_eq!(exit_label.len(), 1, "{out}");
        // loop ends with a full barrier
        assert!(out.contains("lock(BARWOT)"), "{out}");
    }

    #[test]
    fn critical_sections_lock_and_unlock_the_named_variable() {
        let out =
            expand("ZZFORCE(M, NP, ME)\nZZCRITICAL(LCK)\n      X = X + 1\nZZENDCRITICAL(LCK)");
        assert!(out.contains("lock(LCK)"), "{out}");
        assert!(out.contains("unlock(LCK)"), "{out}");
    }

    #[test]
    fn end_critical_without_name_uses_the_open_one() {
        let out = expand("ZZFORCE(M, NP, ME)\nZZCRITICAL(LCK)\n      X = X + 1\nZZENDCRITICAL()");
        assert!(out.contains("unlock(LCK)"), "{out}");
    }

    #[test]
    fn produce_consume_defer_to_the_machine_layer() {
        let out = expand("ZZPRODUCE(C, K + 1)\nZZCONSUME(C, T)\nZZVOID(C)\nZZCOPYF(C, T)");
        assert!(out.contains("zzprod(C, K + 1)"), "{out}");
        assert!(out.contains("zzcons(C, T)"), "{out}");
        assert!(out.contains("zzvoid(C)"), "{out}");
        assert!(out.contains("zzcopyf(C, T)"), "{out}");
    }

    #[test]
    fn presched_pcase_assigns_sections_cyclically() {
        let src =
            "ZZFORCE(M, NP, ME)\nZZPCASE(P)\nZZUSECT\nC S1\nZZCSECT(N .GT. 0)\nC S2\nZZENDPCASE";
        let out = expand(src);
        assert!(out.contains("ZZPSEC = -1"), "{out}");
        assert_eq!(
            out.matches("IF (MOD(ZZPSEC, NP) .EQ. ME) THEN").count(),
            2,
            "{out}"
        );
        assert!(out.contains("IF (N .GT. 0) THEN"), "{out}");
        // both sections closed + final barrier
        assert!(out.matches("END IF").count() >= 4, "{out}");
        assert!(out.contains("lock(BARWOT)"), "{out}");
    }

    #[test]
    fn selfsched_pcase_claims_through_a_locked_counter() {
        let src = "ZZFORCE(M, NP, ME)\nZZPCASE(S)\nZZUSECT\nC S1\nZZUSECT\nC S2\nZZENDPCASE";
        let out = expand(src);
        assert!(out.contains("ZZNXT = ZZPC"), "{out}");
        assert!(out.contains("IF (ZZPSEC .EQ. ZZNXT) THEN"), "{out}");
        // counter initialized by the first arriver under BARWIN
        assert!(out.contains("IF (ZZNBAR .EQ. 0) THEN"), "{out}");
        // claim happens at entry and after each executed section
        assert!(out.matches("ZZNXT = ZZPC").count() >= 3, "{out}");
    }

    #[test]
    fn declarations_emit_fortran_and_record_metadata() {
        let mut m4 = engine();
        let out = m4
            .expand("ZZFORCE(M, NP, ME)\nZZSHARED(INTEGER, `TOTAL, A(10,10)')\nZZASYNC(INTEGER, `C')\nZZPRIVATE(REAL, `X')")
            .unwrap();
        assert!(out.contains("INTEGER TOTAL, A(10,10)"), "{out}");
        assert!(out.contains("INTEGER C"), "{out}");
        assert!(out.contains("REAL X"), "{out}");
        let decls = m4.recorded("decls");
        assert!(
            decls.contains(&"M|shared|INTEGER|TOTAL".to_string()),
            "{decls:?}"
        );
        assert!(decls.contains(&"M|shared|INTEGER|A(10,10)".to_string()));
        assert!(decls.contains(&"M|async|INTEGER|C".to_string()));
        assert!(decls.contains(&"M|private|REAL|X".to_string()));
    }

    #[test]
    fn join_closes_the_unit() {
        let out = expand("ZZJOIN");
        assert!(out.contains("RETURN"));
        assert!(out.contains("END"));
    }

    #[test]
    fn units_are_recorded_in_order() {
        let mut m4 = engine();
        m4.expand("ZZFORCE(MAIN, NP, ME)\nZZJOIN\nZZFORCESUB(WORK, `A', NP, ME)\nZZJOIN")
            .unwrap();
        assert_eq!(
            m4.recorded("units"),
            &["MAIN".to_string(), "WORK".to_string()]
        );
    }

    #[test]
    fn forcesub_with_args_emits_parameter_list() {
        let out = expand("ZZFORCESUB(WORK, `A, N', NP, ME)");
        assert!(out.contains("SUBROUTINE WORK(A, N)"), "{out}");
        let out = expand("ZZFORCESUB(NOP, `', NP, ME)");
        assert!(out.contains("SUBROUTINE NOP\n"), "{out}");
    }

    #[test]
    fn enddecl_emits_the_env_marker_for_the_unit() {
        let out = expand("ZZFORCE(MAIN, NP, ME)\nZZENDDECL");
        assert!(out.contains("C*ZZENVDECL*MAIN"), "{out}");
    }
}
