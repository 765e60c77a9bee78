//! Intrinsic functions and the runtime-service name tables.

use crate::error::FortError;
use crate::value::Value;

/// Intrinsic *functions* usable in expressions.
pub fn is_intrinsic_function(name: &str) -> bool {
    matches!(
        name,
        "ABS"
            | "IABS"
            | "SQRT"
            | "EXP"
            | "ALOG"
            | "SIN"
            | "COS"
            | "MOD"
            | "MIN"
            | "MAX"
            | "MIN0"
            | "MAX0"
            | "AMIN1"
            | "AMAX1"
            | "FLOAT"
            | "INT"
            | "NINT"
            | "ZZPID"
            | "ZZNPROC"
            | "ZZISFL"
            | "ZZHISF"
    )
}

/// Intrinsic *subroutines* provided by the Force runtime (lock services,
/// asynchronous-variable services, sharing setup, process creation).
pub fn is_intrinsic_subroutine(name: &str) -> bool {
    matches!(
        name,
        "ZZTSLCK"
            | "ZZTSUNL"
            | "ZZOSLCK"
            | "ZZOSUNL"
            | "ZZCBLCK"
            | "ZZCBUNL"
            | "ZZFELCK"
            | "ZZFEUNL"
            | "ZZINITL"
            | "ZZINITK"
            | "ZZINITU"
            | "ZZAINI"
            | "ZZVOIDL"
            | "ZZHPRD"
            | "ZZHCON"
            | "ZZHVD"
            | "ZZHCPY"
            | "ZZSTRT0"
            | "ZZLINK"
            | "ZZSHPG"
            | "ZZFORKJ"
            | "ZZSFORK"
            | "ZZSPAWN"
    )
}

/// Evaluate an intrinsic function.  `me`/`np` serve `ZZPID`/`ZZNPROC`.
pub fn eval_function(
    name: &str,
    args: &[Value],
    line: usize,
    me: i64,
    np: i64,
) -> Result<Value, FortError> {
    let argc = |n: usize| -> Result<(), FortError> {
        if args.len() == n {
            Ok(())
        } else {
            Err(FortError::runtime(
                line,
                format!("{name} expects {n} argument(s), got {}", args.len()),
            ))
        }
    };
    let at_least = |n: usize| -> Result<(), FortError> {
        if args.len() >= n {
            Ok(())
        } else {
            Err(FortError::runtime(
                line,
                format!("{name} expects at least {n} argument(s)"),
            ))
        }
    };
    Ok(match name {
        "ABS" => {
            argc(1)?;
            match args[0] {
                Value::Int(n) => Value::Int(n.abs()),
                _ => Value::Real(args[0].as_real(line)?.abs()),
            }
        }
        "IABS" => {
            argc(1)?;
            Value::Int(args[0].as_int(line)?.abs())
        }
        "SQRT" => {
            argc(1)?;
            let x = args[0].as_real(line)?;
            if x < 0.0 {
                return Err(FortError::runtime(line, "SQRT of a negative value"));
            }
            Value::Real(x.sqrt())
        }
        "EXP" => {
            argc(1)?;
            Value::Real(args[0].as_real(line)?.exp())
        }
        "ALOG" => {
            argc(1)?;
            let x = args[0].as_real(line)?;
            if x <= 0.0 {
                return Err(FortError::runtime(line, "ALOG of a non-positive value"));
            }
            Value::Real(x.ln())
        }
        "SIN" => {
            argc(1)?;
            Value::Real(args[0].as_real(line)?.sin())
        }
        "COS" => {
            argc(1)?;
            Value::Real(args[0].as_real(line)?.cos())
        }
        "MOD" => {
            argc(2)?;
            match (args[0], args[1]) {
                (Value::Int(a), Value::Int(b)) => {
                    if b == 0 {
                        return Err(FortError::runtime(line, "MOD by zero"));
                    }
                    Value::Int(a.wrapping_rem(b))
                }
                _ => {
                    let a = args[0].as_real(line)?;
                    let b = args[1].as_real(line)?;
                    if b == 0.0 {
                        return Err(FortError::runtime(line, "MOD by zero"));
                    }
                    Value::Real(a % b)
                }
            }
        }
        "MIN" | "MIN0" | "AMIN1" => {
            at_least(1)?;
            fold_minmax(name, args, line, true)?
        }
        "MAX" | "MAX0" | "AMAX1" => {
            at_least(1)?;
            fold_minmax(name, args, line, false)?
        }
        "FLOAT" => {
            argc(1)?;
            Value::Real(args[0].as_real(line)?)
        }
        "INT" => {
            argc(1)?;
            Value::Int(args[0].as_int(line)?)
        }
        "NINT" => {
            argc(1)?;
            Value::Int(args[0].as_real(line)?.round() as i64)
        }
        "ZZPID" => {
            argc(0)?;
            Value::Int(me)
        }
        "ZZNPROC" => {
            argc(0)?;
            Value::Int(np)
        }
        other => {
            return Err(FortError::runtime(
                line,
                format!("unknown function or undeclared array `{other}`"),
            ))
        }
    })
}

fn fold_minmax(name: &str, args: &[Value], line: usize, min: bool) -> Result<Value, FortError> {
    let all_int = args.iter().all(|v| matches!(v, Value::Int(_)));
    if all_int && (name == "MIN" || name == "MAX" || name == "MIN0" || name == "MAX0") {
        let mut best = args[0].as_int(line)?;
        for a in &args[1..] {
            let v = a.as_int(line)?;
            best = if min { best.min(v) } else { best.max(v) };
        }
        Ok(Value::Int(best))
    } else {
        let mut best = args[0].as_real(line)?;
        for a in &args[1..] {
            let v = a.as_real(line)?;
            best = if min { best.min(v) } else { best.max(v) };
        }
        Ok(Value::Real(best))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(name: &str, args: &[Value]) -> Value {
        eval_function(name, args, 1, 3, 8).unwrap()
    }

    #[test]
    fn arithmetic_intrinsics() {
        assert_eq!(f("ABS", &[Value::Int(-4)]), Value::Int(4));
        assert_eq!(f("ABS", &[Value::Real(-2.5)]), Value::Real(2.5));
        assert_eq!(f("SQRT", &[Value::Real(9.0)]), Value::Real(3.0));
        assert_eq!(f("MOD", &[Value::Int(7), Value::Int(3)]), Value::Int(1));
        assert_eq!(
            f("MAX", &[Value::Int(2), Value::Int(9), Value::Int(5)]),
            Value::Int(9)
        );
        assert_eq!(
            f("MIN", &[Value::Real(2.0), Value::Int(1)]),
            Value::Real(1.0)
        );
        assert_eq!(f("FLOAT", &[Value::Int(2)]), Value::Real(2.0));
        assert_eq!(f("INT", &[Value::Real(2.9)]), Value::Int(2));
        assert_eq!(f("NINT", &[Value::Real(2.9)]), Value::Int(3));
    }

    #[test]
    fn pid_and_nproc() {
        assert_eq!(f("ZZPID", &[]), Value::Int(3));
        assert_eq!(f("ZZNPROC", &[]), Value::Int(8));
    }

    #[test]
    fn errors() {
        assert!(eval_function("SQRT", &[Value::Real(-1.0)], 1, 0, 1).is_err());
        assert!(eval_function("MOD", &[Value::Int(1), Value::Int(0)], 1, 0, 1).is_err());
        assert!(eval_function("NOPE", &[], 1, 0, 1).is_err());
        assert!(eval_function("ABS", &[], 1, 0, 1).is_err());
    }

    #[test]
    fn name_tables() {
        assert!(is_intrinsic_function("MOD"));
        assert!(!is_intrinsic_function("TOTAL"));
        assert!(is_intrinsic_subroutine("ZZTSLCK"));
        assert!(is_intrinsic_subroutine("ZZFORKJ"));
        assert!(!is_intrinsic_subroutine("WORK"));
    }
}
