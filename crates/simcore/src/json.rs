//! JSON string escaping — the single escaping helper shared by every
//! exporter in the workspace.
//!
//! The `telemetry` crate's exporters (Chrome trace, reports, folded
//! stacks) and the bench tools emit JSON by hand because the build is
//! fully offline. They all route string
//! literals through [`escape_json`] so there is exactly one place that
//! knows the escaping rules — and one round-trip contract with the
//! parser in `telemetry::json` (see the hostile-input round-trip tests
//! there).

use std::borrow::Cow;
use std::fmt::Write as _;

/// Escape a string for inclusion inside a JSON string literal.
///
/// Borrows when no escaping is needed (the common case for track/label
/// names), so callers pay no allocation unless the input actually contains
/// `"`, `\` or control characters.
pub fn escape_json(s: &str) -> Cow<'_, str> {
    if s.bytes().all(|b| b != b'"' && b != b'\\' && b >= 0x20) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to string"),
            c => out.push(c),
        }
    }
    Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_json_borrows_when_clean() {
        assert!(matches!(escape_json("loc0/core1"), Cow::Borrowed(_)));
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn multibyte_passes_through_unescaped() {
        assert_eq!(escape_json("héllo → 🌍"), "héllo → 🌍");
        // Mixed hostile + multibyte still only escapes what JSON requires.
        assert_eq!(escape_json("🌍\"\t"), "🌍\\\"\\t");
    }

    #[test]
    fn every_control_char_is_escaped() {
        for b in 0u32..0x20 {
            let s = char::from_u32(b).unwrap().to_string();
            let escaped = escape_json(&s);
            assert!(escaped.starts_with('\\'), "control {b:#x} not escaped: {escaped:?}");
        }
    }
}
