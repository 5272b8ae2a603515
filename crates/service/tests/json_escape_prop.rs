//! Property tests for the one-pass JSON string writers in `sqo-obs`
//! (`write_json_str`, and `write_json_display`, which escapes through a
//! `fmt::Write` adapter): for arbitrary text, including `"`, `\`, every
//! control character U+0000–U+001F and multi-byte UTF-8, the written
//! literal parses back to the input with the wire parser and is
//! byte-equal to `obs::json_string`, whether the text arrives in one
//! piece or in `Display` chunks.

use proptest::prelude::*;
use sqo_obs as obs;
use sqo_service::json::{self, Json};
use std::fmt;

/// One character, weighted toward the ones that need escaping and the
/// multi-byte encodings whose boundaries an escaper must not split.
fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![
        3 => (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
        2 => Just('"'),
        2 => Just('\\'),
        4 => (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
        1 => Just('\u{7f}'),
        2 => (0x80u32..0x800).prop_map(|c| char::from_u32(c).unwrap()),
        2 => (0x800u32..0xd800).prop_map(|c| char::from_u32(c).unwrap()),
        1 => (0xe000u32..0x10000).prop_map(|c| char::from_u32(c).unwrap()),
        2 => (0x10000u32..0x110000).prop_map(|c| char::from_u32(c).unwrap()),
    ]
}

/// Reference escaper: one character at a time, the way `json_string`
/// worked before it copied unescaped runs in one go.
fn reference_literal(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(any_char(), 0..40).prop_map(|cs| cs.into_iter().collect())
}

/// Displays its pieces one `write_str` call at a time, so the escaping
/// adapter sees the text in arbitrary chunks.
struct Chunked(Vec<String>);

impl fmt::Display for Chunked {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.iter().try_for_each(|piece| f.write_str(piece))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The direct writer round-trips and matches `json_string` byte for
    /// byte.
    #[test]
    fn written_literal_parses_back_and_matches_json_string(s in text()) {
        let mut out = String::from("prefix:");
        obs::write_json_str(&mut out, &s);
        let literal = &out["prefix:".len()..];
        let expected = obs::json_string(&s);
        prop_assert_eq!(literal, expected.as_str());
        let reference = reference_literal(&s);
        prop_assert_eq!(literal, reference.as_str());
        prop_assert!(literal.bytes().all(|b| b >= 0x20), "raw control byte in {:?}", literal);
        prop_assert_eq!(json::parse(literal), Ok(Json::Str(s.clone())));
    }

    /// The `Display` path escapes chunk by chunk to the same bytes.
    #[test]
    fn display_chunks_escape_like_the_whole_string(
        pieces in prop::collection::vec(text(), 0..6)
    ) {
        let whole: String = pieces.concat();
        let mut out = String::new();
        obs::write_json_display(&mut out, &Chunked(pieces));
        let expected = obs::json_string(&whole);
        prop_assert_eq!(&out, &expected);
        prop_assert_eq!(&out, &reference_literal(&whole));
        prop_assert_eq!(json::parse(&out), Ok(Json::Str(whole)));
    }
}
