//! The one hand-rolled JSON formatting vocabulary for the whole workspace.
//!
//! Every report, journal, and fig binary emits JSON by hand (the workspace
//! has no serialization framework), and before this module each of them
//! carried its own copy of the same two helpers — with subtly different
//! escaping coverage. These are the canonical versions:
//!
//! * strings escape quotes, backslashes, and **all** control characters
//!   (U+0000–U+001F), so arbitrary detector/source names can't corrupt a
//!   report;
//! * numbers print integral finite values without a fraction (counts stay
//!   counts) and encode non-finite values as `null`, JSON's conventional
//!   stand-in for NaN/infinity.

use std::fmt::Write as _;

/// Appends `value` to `out` with JSON string escaping (no surrounding
/// quotes): `"` and `\` are escaped, newline/carriage-return/tab use their
/// short forms, and every other control character becomes a `\u00xx` escape.
pub fn escape_into(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Returns `value` as a quoted, escaped JSON string literal.
pub fn quoted(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    escape_into(&mut out, value);
    out.push('"');
    out
}

/// Appends a `"key":"value"` member (no trailing comma), escaping both
/// sides.
pub fn str_field(out: &mut String, key: &str, value: &str) {
    out.push('"');
    escape_into(out, key);
    out.push_str("\":\"");
    escape_into(out, value);
    out.push('"');
}

/// Formats a number the report convention's way: integral finite values
/// print without a fraction, non-finite values print as `null`.
pub fn fmt_num(value: f64) -> String {
    let mut out = String::new();
    push_num(&mut out, value);
    out
}

/// Appends a bare JSON number (or `null` for non-finite values) to `out`.
pub fn push_num(out: &mut String, value: f64) {
    if value.is_finite() {
        if value.fract() == 0.0 && value.abs() < 9e15 {
            let _ = write!(out, "{}", value as i64);
        } else {
            let _ = write!(out, "{value}");
        }
    } else {
        out.push_str("null");
    }
}

/// Appends a `"key":number` member (no trailing comma).
pub fn num_field(out: &mut String, key: &str, value: f64) {
    out.push('"');
    escape_into(out, key);
    out.push_str("\":");
    push_num(out, value);
}

/// Appends `"key":number` members separated by commas (no trailing comma).
pub fn num_fields(out: &mut String, fields: &[(&str, f64)]) {
    for (i, &(key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        num_field(out, key, value);
    }
}

/// Returns a JSON object of number members.
pub fn num_object(fields: &[(&str, f64)]) -> String {
    let mut out = String::from("{");
    num_fields(&mut out, fields);
    out.push('}');
    out
}

/// Appends a `"key":[…]` member of already-encoded JSON values (no
/// trailing comma).
pub fn list_field(out: &mut String, key: &str, items: impl IntoIterator<Item = String>) {
    out.push('"');
    escape_into(out, key);
    out.push_str("\":[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        let mut out = String::new();
        str_field(&mut out, "name", "a\"b\\c\nd\re\tf\u{1}g");
        assert_eq!(out, "\"name\":\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\"");
        // The quoted form matches, including an embedded NUL.
        assert_eq!(quoted("x\u{0}y"), "\"x\\u0000y\"");
        // Keys get the same treatment — a hostile key can't break the object.
        let mut out = String::new();
        num_field(&mut out, "a\"b", 1.0);
        assert_eq!(out, "\"a\\\"b\":1");
    }

    #[test]
    fn numbers_follow_the_report_convention() {
        assert_eq!(fmt_num(3.0), "3");
        assert_eq!(fmt_num(-17.0), "-17");
        assert_eq!(fmt_num(0.5), "0.5");
        assert_eq!(fmt_num(f64::NAN), "null");
        assert_eq!(fmt_num(f64::INFINITY), "null");
        assert_eq!(fmt_num(f64::NEG_INFINITY), "null");
        // Too large to be exactly integral in i64 — keep the float form.
        assert_eq!(fmt_num(1e16), "10000000000000000");
        let mut out = String::new();
        num_field(&mut out, "threshold", 2.25);
        assert_eq!(out, "\"threshold\":2.25");
    }

    #[test]
    fn escaped_output_parses_as_the_original() {
        // Cheap structural check: every quote in the output is escaped, so
        // the literal terminates exactly once.
        let s = quoted("quote:\" backslash:\\ newline:\n");
        assert!(s.starts_with('"') && s.ends_with('"'));
        let interior = &s[1..s.len() - 1];
        let mut chars = interior.chars();
        while let Some(c) = chars.next() {
            assert_ne!(c, '"', "unescaped quote inside literal");
            if c == '\\' {
                chars.next();
            }
        }
    }
}
