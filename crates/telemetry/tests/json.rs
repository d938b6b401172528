//! RFC 8259 conformance of the workspace JSON codec: escapes, the grammar's
//! rejections, the depth cap and the writer. The seed-pinned round trip over
//! hostile strings lives with the server wire codec.

use telemetry::json::{self, Value, MAX_DEPTH};

fn rejects(text: &str, needle: &str) {
    let err = json::parse(text).expect_err(text).to_string();
    assert!(
        err.contains(needle),
        "{text:?}: {err} should mention {needle:?}"
    );
}

#[test]
fn escapes_decode_including_surrogate_pairs() {
    for (text, decoded) in [
        (r#""a\u0062""#, "ab"),
        (r#""\"\\\/""#, "\"\\/"),
        (r#""\b\f\n\r\t""#, "\u{8}\u{c}\n\r\t"),
        (r#""\u00e9\u2028\ud83d\ude00 😀""#, "é\u{2028}😀 😀"),
    ] {
        assert_eq!(json::parse(text).unwrap(), Value::from(decoded), "{text}");
    }
}

#[test]
fn malformed_text_is_rejected_with_the_reason() {
    for (text, needle) in [
        (r#""\ud800""#, "lone surrogate"),
        (r#""\ud800A""#, "lone surrogate"),
        (r#""\udc00""#, "lone surrogate"),
        (r#""\x""#, "invalid escape"),
        (r#""\u12""#, "four hex digits"),
        ("\"a\nb\"", "control character"),
        ("{\"k\u{1f}\":1}", "control character"),
        ("03", "leading zero"),
        (r#"{"qubits":03}"#, "leading zero"),
        ("-01", "leading zero"),
        (r#"{"a":1,"a":2}"#, "duplicate key \"a\""),
        (r#"{"a":1} x"#, "trailing 'x'"),
        (r#"{"a":1 "b":2}"#, "expected ',' or '}'"),
        ("[1 2]", "expected ',' or ']'"),
        ("{1:2}", "expected a string key"),
        ("[1,]", "expected a value"),
        ("nul", "expected a value"),
        ("", "unexpected end of input"),
        ("\"open", "unterminated string"),
    ] {
        rejects(text, needle);
    }
    for bad in ["1.", ".5", "+1", "1e", "-", "01.5"] {
        assert!(json::parse(bad).is_err(), "{bad} must be rejected");
    }
}

#[test]
fn numbers_keep_their_lexeme() {
    for ok in ["0", "-0", "7", "0.5", "-12.25", "1e5", "1E-2", "2.5e+3"] {
        assert_eq!(json::parse(ok).unwrap(), Value::Number(ok.to_string()));
    }
    let max = u64::MAX.to_string();
    assert_eq!(json::parse(&max).unwrap().as_u64(), Some(u64::MAX));
    for not_u64 in ["-1", "1.5", "18446744073709551616"] {
        assert_eq!(json::parse(not_u64).unwrap().as_u64(), None);
    }
    assert_eq!(json::parse("1.5").unwrap().as_f64(), Some(1.5));
}

#[test]
fn nesting_is_capped_instead_of_overflowing_the_stack() {
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(json::parse(&nested(MAX_DEPTH)).is_ok());
    rejects(&nested(MAX_DEPTH + 1), "nesting deeper");
    rejects(&"[".repeat(1_000_000), "nesting deeper");
    rejects(&"{\"a\":".repeat(1_000_000), "nesting deeper");
}

#[test]
fn writer_escapes_and_renders_non_finite_floats_as_null() {
    let value = Value::object([
        ("s", Value::from("q\"b\\n\n\u{1}\u{2028}")),
        ("nan", Value::from(f64::NAN)),
        ("inf", Value::from(f64::INFINITY)),
        ("half", Value::from(0.5)),
        ("neg", Value::from(-3i64)),
        ("list", Value::Array(vec![Value::from(true), Value::Null])),
        ("empty", Value::object::<&str>([])),
    ]);
    let compact = r#"{"s":"q\"b\\n\n\u0001 ","nan":null,"inf":null,"half":0.5,"neg":-3,"list":[true,null],"empty":{}}"#;
    assert_eq!(value.to_string(), compact.replace(' ', "\u{2028}"));
    let pretty = format!("{value:#}");
    assert!(
        pretty.starts_with("{\n  \"s\": ")
            && pretty.contains("\"list\": [\n    true,\n    null\n  ],")
    );
    assert!(pretty.ends_with("\n  \"empty\": {}\n}"));
    assert_eq!(json::parse(&pretty).unwrap(), value);
}
