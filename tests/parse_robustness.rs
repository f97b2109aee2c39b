//! Robustness of the `.tg` graph parser under arbitrary input: any token
//! stream or byte string parses to a graph or to a typed [`ParseError`]
//! naming a real line, never to a panic; and `to_text ∘ parse` is the
//! identity on the text of every generated graph.

use proptest::prelude::*;
use sparcs::dfg::gen::{layered, scaled, LayeredConfig, ScaledConfig};
use sparcs::dfg::parse::{parse, to_text, ParseError};
use sparcs::dfg::TaskGraph;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The grammar's own words, its near misses and the numbers and separators
/// most likely to break a hand-written line parser.
const TOKENS: &[&str] = &[
    "graph",
    "task",
    "edge",
    "input",
    "output",
    "tsak",
    "a",
    "b",
    "c",
    "t1",
    "->",
    "-",
    ">",
    "=",
    "clbs=1",
    "clbs=",
    "clbs=-1",
    "clbs=1_000",
    "delay=5",
    "delay=",
    "out=2",
    "out=x",
    "words=3",
    "words=0",
    "words=18446744073709551615",
    "words=18446744073709551616",
    "tasks=a",
    "tasks=a,b",
    "tasks=,",
    "tasks=",
    "kind=T1",
    "kind==",
    "==",
    "#",
    "# c",
    "_",
    "0",
    "18446744073709551615",
    "\u{a0}",
    "\u{2028}",
    "é",
    "\r",
];

/// Separators between tokens, including line breaks of both styles.
const SEPARATORS: &[&str] = &[" ", " ", " ", "\t", "\n", "\n", "\r\n", ""];

fn token_stream() -> impl Strategy<Value = String> {
    prop::collection::vec((0..TOKENS.len(), 0..SEPARATORS.len()), 0..48).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(t, s)| format!("{}{}", TOKENS[t], SEPARATORS[s]))
            .collect()
    })
}

/// Parses `text` and checks the outcome is a graph or a typed error on a
/// line that exists, with no panic in between.
fn parses_cleanly(text: &str) -> Result<(), TestCaseError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| parse(text)));
    prop_assert!(outcome.is_ok(), "parse panicked on {text:?}");
    if let Ok(Err(ParseError { line, .. })) = outcome {
        let lines = text.lines().count();
        prop_assert!(
            (1..=lines).contains(&line),
            "error on line {line} of a {lines}-line text {text:?}"
        );
    }
    Ok(())
}

fn round_trips(g: &TaskGraph) -> Result<(), TestCaseError> {
    let text = to_text(g);
    let reparsed = parse(&text).map_err(|e| TestCaseError::fail(format!("{e}")))?;
    prop_assert_eq!(to_text(&reparsed), text);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2_000, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_token_streams_never_panic(text in token_stream()) {
        parses_cleanly(&text)?;
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        parses_cleanly(&String::from_utf8_lossy(&bytes))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn layered_graphs_round_trip_through_text(
        seed in 0u64..10_000,
        layers in 1u32..8,
        max_width in 1u32..7,
    ) {
        let cfg = LayeredConfig { layers, min_width: 1, max_width, ..LayeredConfig::default() };
        round_trips(&layered(&cfg, seed))?;
    }

    #[test]
    fn scaled_graphs_round_trip_through_text(seed in 0u64..10_000, nodes in 1u32..300) {
        round_trips(&scaled(&ScaledConfig::preset(nodes), seed))?;
    }
}
