//! Small builders and by-key readers over the vendored `serde_json`
//! (which has no `json!` macro). Reports are read **by key**: a counter
//! a later refactor renames or drops reads as "absent", not as a build
//! break in the benchmark.

use serde_json::{Number, Value};

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn num(v: f64) -> Value {
    Value::Number(Number::F64(v))
}

pub fn uint(v: u64) -> Value {
    Value::Number(Number::U64(v))
}

pub fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

/// Walk `path` through nested objects; `None` as soon as a key is
/// missing or the value is not a number.
pub fn number_at(v: &Value, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(v, |cur, key| cur.get(key))?.as_f64()
}

/// Serialize any report struct and parse it back as a by-key tree.
pub fn to_tree<T: serde::Serialize>(value: &T) -> Value {
    let text = serde_json::to_string(value).expect("report structs serialize");
    serde_json::from_str(&text).expect("serializer output parses")
}
