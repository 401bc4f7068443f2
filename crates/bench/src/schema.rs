//! What shape an artifact must have: one [`Shape`] value per artifact, one
//! [`check`] that walks JSON against it.
//!
//! The modules of the committed `BENCH_paper.json`, `BENCH_codec.json` and
//! `BENCH_wan.json`, and of the `stats.json` series `fleet_top` exports,
//! each declare a `const SHAPE` and hand their text to [`parse`]; what is left in the
//! artifact modules is the invariants that are about the experiment, read
//! with the accessors at the bottom of this file from values the shape
//! pass has already typed. Every leaf has a type, object keys are exact
//! and ordered, and every error starts with the path of the offending
//! value (`root.points[2].runs.fec_on_feedback_on.blocks_sent: ...`). A
//! new artifact becomes a client by writing its `SHAPE`.

use serde::Value;

/// What a JSON value must look like.
#[derive(Debug)]
pub enum Shape {
    /// A finite number.
    Num,
    /// A finite number above zero.
    Pos,
    /// A number in `[0, 1]`.
    Unit,
    /// A non-negative integer: a count that may be zero.
    UInt,
    /// An integer of at least one: a count that may not be zero.
    Count,
    /// Any string.
    Str,
    /// One of these strings.
    OneOf(&'static [&'static str]),
    /// An object with exactly these keys, in this order.
    Obj(&'static [(&'static str, Shape)]),
    /// A non-empty array whose items all have one shape.
    Arr(&'static Shape),
    /// An object with open keys whose values all have one shape.
    Map(&'static Shape),
}

/// Checks `value` against `shape`; `path` names `value` in the error.
///
/// # Errors
///
/// The path and a description of the first value that does not fit.
pub fn check(value: &Value, shape: &Shape, path: &str) -> Result<(), String> {
    let mismatch = |want: &str| format!("{path}: expected {want}, got {}", show(value));
    match shape {
        Shape::Num | Shape::Pos | Shape::Unit | Shape::UInt | Shape::Count => {
            let Value::Number(n) = value else {
                return Err(mismatch("a number"));
            };
            let v = n.as_f64();
            let (fits, want) = match shape {
                Shape::Num => (v.is_finite(), "a finite number"),
                Shape::Pos => (v.is_finite() && v > 0.0, "a positive finite number"),
                Shape::Unit => ((0.0..=1.0 + 1e-9).contains(&v), "a number in [0, 1]"),
                Shape::UInt => (n.as_u64().is_some(), "a non-negative integer"),
                _ => (n.as_u64().is_some_and(|c| c > 0), "a positive integer"),
            };
            fits.then_some(()).ok_or_else(|| mismatch(want))
        }
        Shape::Str => value.as_str().map(drop).ok_or_else(|| mismatch("a string")),
        Shape::OneOf(allowed) => match value.as_str() {
            Some(s) if allowed.contains(&s) => Ok(()),
            _ => Err(mismatch(&format!("one of {allowed:?}"))),
        },
        Shape::Obj(fields) => {
            let map = value.as_object().ok_or_else(|| mismatch("an object"))?;
            let have: Vec<&str> = map.iter().map(|(k, _)| k).collect();
            let want: Vec<&str> = fields.iter().map(|(k, _)| *k).collect();
            if have != want {
                return Err(format!("{path}: keys {have:?}, expected exactly {want:?}"));
            }
            map.iter()
                .zip(*fields)
                .try_for_each(|((k, v), (_, s))| check(v, s, &format!("{path}.{k}")))
        }
        Shape::Arr(item) => match value.as_array() {
            Some(items) if !items.is_empty() => items
                .iter()
                .enumerate()
                .try_for_each(|(i, v)| check(v, item, &format!("{path}[{i}]"))),
            _ => Err(mismatch("a non-empty array")),
        },
        Shape::Map(item) => value
            .as_object()
            .ok_or_else(|| mismatch("an object"))?
            .iter()
            .try_for_each(|(k, v)| check(v, item, &format!("{path}.{k}"))),
    }
}

fn show(value: &Value) -> String {
    match value {
        Value::Number(n) => n.as_f64().to_string(),
        Value::String(s) => format!("{s:?}"),
        other => other.kind().to_string(),
    }
}

/// Parses `json` and checks it against `shape` from the path `root`.
///
/// # Errors
///
/// The parse error, or [`check`]'s.
pub fn parse(json: &str, shape: &Shape) -> Result<Value, String> {
    let root = serde_json::parse_value_str(json).map_err(|e| format!("unparseable JSON: {e}"))?;
    check(&root, shape, "root")?;
    Ok(root)
}

// Accessors for the invariants that run after the shape pass. They panic
// where the invariant reads something its `SHAPE` does not promise: that
// is a disagreement inside one artifact module, never a property of the
// input.

/// Member `key` of a checked [`Shape::Obj`] or [`Shape::Map`] value.
pub fn member<'a>(object: &'a Value, key: &str) -> &'a Value {
    object
        .as_object()
        .and_then(|m| m.get(key))
        .unwrap_or_else(|| panic!("`{key}` is not in the shape that was checked"))
}

/// Member `key`, checked as any of the number shapes.
pub fn number_of(object: &Value, key: &str) -> f64 {
    match member(object, key) {
        Value::Number(n) => n.as_f64(),
        _ => panic!("`{key}` was not checked as a number"),
    }
}

/// A value checked as [`Shape::UInt`] or [`Shape::Count`].
pub fn uint(value: &Value) -> u64 {
    match value {
        Value::Number(n) => n.as_u64(),
        _ => None,
    }
    .unwrap_or_else(|| panic!("{} was not checked as an integer", show(value)))
}

/// Member `key`, checked as [`Shape::UInt`] or [`Shape::Count`].
pub fn uint_of(object: &Value, key: &str) -> u64 {
    uint(member(object, key))
}

/// Member `key`, checked as [`Shape::Arr`].
pub fn items_of<'a>(object: &'a Value, key: &str) -> &'a [Value] {
    member(object, key)
        .as_array()
        .unwrap_or_else(|| panic!("`{key}` was not checked as an array"))
}

/// `(key, value)` pairs of member `key`, checked as [`Shape::Map`].
pub fn entries_of<'a>(object: &'a Value, key: &str) -> impl Iterator<Item = (&'a str, &'a Value)> {
    member(object, key)
        .as_object()
        .unwrap_or_else(|| panic!("`{key}` was not checked as an object"))
        .iter()
}

/// Every way to spoil one leaf of `json`: `(path, text)` pairs where
/// `text` is `json` with the leaf at `path` replaced by a value of the
/// wrong type — a number by a string and by `null`, an integer also by
/// `1.5`, a string by a number. The artifact modules' negative tests feed
/// each to their `validate` and expect an error naming `path`.
#[cfg(test)]
pub(crate) fn wrong_typed_leaves(json: &str) -> Vec<(String, String)> {
    use serde::Number;
    fn spoil(value: &Value, path: &str) -> Vec<(String, Value)> {
        let put = |path: &str, v: Value| (path.to_string(), v);
        match value {
            Value::Object(map) => map
                .iter()
                .flat_map(|(k, child)| {
                    spoil(child, &format!("{path}.{k}"))
                        .into_iter()
                        .map(move |(p, spoiled)| {
                            let mut map = map.clone();
                            map.insert(k.to_string(), spoiled);
                            (p, Value::Object(map))
                        })
                })
                .collect(),
            Value::Array(items) => items
                .iter()
                .enumerate()
                .flat_map(|(i, child)| {
                    spoil(child, &format!("{path}[{i}]"))
                        .into_iter()
                        .map(move |(p, spoiled)| {
                            let mut items = items.clone();
                            items[i] = spoiled;
                            (p, Value::Array(items))
                        })
                })
                .collect(),
            Value::Number(n) => {
                let mut out = vec![
                    put(path, Value::String("7".to_string())),
                    put(path, Value::Null),
                ];
                if n.as_u64().is_some() {
                    out.push(put(path, Value::Number(Number::Float(1.5))));
                }
                out
            }
            _ => vec![put(path, Value::Number(Number::PosInt(7)))],
        }
    }
    let root = serde_json::parse_value_str(json).expect("sample parses");
    spoil(&root, "root")
        .into_iter()
        .map(|(path, v)| (path, serde_json::to_string(&v).expect("serializes")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const POINT: Shape = Shape::Obj(&[
        ("name", Shape::Str),
        ("tier", Shape::OneOf(&["a", "b"])),
        ("n", Shape::Count),
        ("share", Shape::Unit),
        ("extra", Shape::Map(&Shape::UInt)),
    ]);
    const DOC: Shape = Shape::Obj(&[("points", Shape::Arr(&POINT))]);

    fn doc(point: &str) -> String {
        format!("{{\"points\": [{point}]}}")
    }

    const GOOD: &str = r#"{"name": "x", "tier": "b", "n": 3, "share": 0.5, "extra": {"k": 0}}"#;

    #[test]
    fn a_fitting_document_passes_and_reads_back() {
        let root = parse(&doc(GOOD), &DOC).expect("fits");
        let point = &items_of(&root, "points")[0];
        assert_eq!(number_of(point, "share"), 0.5);
        assert_eq!(uint_of(point, "n"), 3);
        let extra: Vec<_> = entries_of(point, "extra").collect();
        assert_eq!(extra.len(), 1);
        assert_eq!((extra[0].0, uint(extra[0].1)), ("k", 0));
    }

    #[test]
    fn every_error_names_the_path() {
        for (bad, path) in [
            (GOOD.replace("\"x\"", "1"), "root.points[0].name"),
            (GOOD.replace("\"b\"", "\"c\""), "root.points[0].tier"),
            (GOOD.replace("3", "0"), "root.points[0].n"),
            (GOOD.replace("3", "2.5"), "root.points[0].n"),
            (GOOD.replace("0.5", "1.5"), "root.points[0].share"),
            (GOOD.replace("0.5", "null"), "root.points[0].share"),
            (
                GOOD.replace("{\"k\": 0}", "{\"k\": -1}"),
                "root.points[0].extra.k",
            ),
            (GOOD.replace("{\"k\": 0}", "[]"), "root.points[0].extra"),
            (GOOD.replace("\"n\"", "\"m\""), "root.points[0]: keys"),
            // Key order is part of the shape.
            (
                GOOD.replace("\"n\": 3, \"share\": 0.5", "\"share\": 0.5, \"n\": 3"),
                "root.points[0]: keys",
            ),
        ] {
            let err = parse(&doc(&bad), &DOC).expect_err(&bad);
            assert!(err.starts_with(path), "{bad}: {err}");
        }
        let err = parse("{\"points\": []}", &DOC).expect_err("empty array");
        assert!(
            err.starts_with("root.points: expected a non-empty"),
            "{err}"
        );
        assert!(parse("not json", &DOC).is_err());
        assert!(parse("[]", &DOC).is_err());
    }

    #[test]
    fn wrong_typed_leaves_spoils_each_leaf_once_per_wrong_type() {
        let spoiled = wrong_typed_leaves(&doc(GOOD));
        // name, tier: 1 each; n: 3 (integer); share: 2; extra.k: 3.
        assert_eq!(spoiled.len(), 10);
        for (path, json) in spoiled {
            let err = parse(&json, &DOC).expect_err(&path);
            assert!(err.starts_with(&path), "{path}: {err}");
        }
    }
}
