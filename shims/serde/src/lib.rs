//! Offline stand-in for `serde`.
//!
//! The build environment has no network access and an empty registry, so the
//! workspace vendors a minimal serialization framework under the same crate
//! name. It is value-tree based rather than visitor based: [`Serialize`]
//! lowers a value to a [`Value`], [`Deserialize`] rebuilds it from one, and
//! the sibling `serde_json` crate handles JSON text. The `serde_derive`
//! proc-macro generates impls for named-field structs and newtypes using
//! the representation real serde defaults to.
//!
//! Only the API surface this workspace uses is provided. If a future PR
//! gains network access, deleting `shims/` and bumping the manifests to the
//! real crates is intended to be a drop-in change.

use std::collections::BTreeMap;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-like number: integers are kept exact, floats are `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Non-negative integer.
    PosInt(u64),
    /// Negative integer.
    NegInt(i64),
    /// Floating point.
    Float(f64),
}

impl Number {
    /// The number as `f64` (lossy for very large integers).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::PosInt(v) => v as f64,
            Number::NegInt(v) => v as f64,
            Number::Float(v) => v,
        }
    }

    /// The number as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::PosInt(v) => Some(v),
            Number::NegInt(_) | Number::Float(_) => None,
        }
    }

    /// The number as `i64`, if it is an integer that fits.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::PosInt(v) => i64::try_from(v).ok(),
            Number::NegInt(v) => Some(v),
            Number::Float(_) => None,
        }
    }
}

/// An order-preserving string-keyed map of [`Value`]s.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a key, replacing any previous value under it.
    pub fn insert(&mut self, key: String, value: Value) {
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.entries.push((key, value));
        }
    }

    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(key, value)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// A serialized value tree (the JSON data model).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An ordered sequence.
    Array(Vec<Value>),
    /// A keyed object.
    Object(Map),
}

impl Value {
    /// The value as an object, if it is one.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// A short name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError(String);

impl DeError {
    /// A free-form error.
    pub fn custom(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }

    /// "expected X while deserializing T" helper used by generated code.
    pub fn expected(what: &str, ty: &str) -> Self {
        Self(format!("expected {what} while deserializing {ty}"))
    }

    /// Missing-field helper used by generated code.
    pub fn missing_field(field: &str, ty: &str) -> Self {
        Self(format!("missing field `{field}` while deserializing {ty}"))
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Lowers a value into a [`Value`] tree.
pub trait Serialize {
    /// The value-tree form of `self`.
    fn to_value(&self) -> Value;
}

/// Rebuilds a value from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Parses `self` out of a value tree.
    ///
    /// # Errors
    ///
    /// Returns a [`DeError`] when the tree does not match the expected shape.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// --- primitive impls -------------------------------------------------------

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::expected("bool", other.kind())),
        }
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::PosInt(*self as u64))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Number(n) => n
                        .as_u64()
                        .and_then(|u| <$t>::try_from(u).ok())
                        .ok_or_else(|| DeError::expected(stringify!($t), "out-of-range number")),
                    other => Err(DeError::expected(stringify!($t), other.kind())),
                }
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let v = *self as i64;
                if v < 0 {
                    Value::Number(Number::NegInt(v))
                } else {
                    Value::Number(Number::PosInt(v as u64))
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Number(n) => n
                        .as_i64()
                        .and_then(|i| <$t>::try_from(i).ok())
                        .ok_or_else(|| DeError::expected(stringify!($t), "out-of-range number")),
                    other => Err(DeError::expected(stringify!($t), other.kind())),
                }
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::Float(*self))
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Number(n) => Ok(n.as_f64()),
            other => Err(DeError::expected("f64", other.kind())),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Number(Number::Float(*self as f64))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Number(n) => Ok(n.as_f64() as f32),
            other => Err(DeError::expected("f32", other.kind())),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::String(s) => Ok(s.clone()),
            other => Err(DeError::expected("string", other.kind())),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

// --- container impls -------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::expected("array", other.kind())),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        for (k, v) in self {
            m.insert(k.clone(), v.to_value());
        }
        Value::Object(m)
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Object(m) => m
                .iter()
                .map(|(k, v)| Ok((k.to_string(), V::from_value(v)?)))
                .collect(),
            other => Err(DeError::expected("object", other.kind())),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}
