//! Offline stand-in for the `serde` crate.
//!
//! The build container has no network access and no vendored registry, so
//! the workspace cannot fetch the real `serde`. This shim keeps the public
//! surface the AMPeD crates actually use — `#[derive(Serialize,
//! Deserialize)]`, `#[serde(default)]`, `#[serde(default = "path")]`,
//! `#[serde(untagged)]` — on top of a single dynamic [`Value`] data model
//! instead of serde's visitor machinery. `serde_json` (also shimmed) renders
//! and parses that `Value`.
//!
//! Design notes:
//! * Serialization is `T -> Value`; deserialization is `&Value -> T`.
//! * Externally tagged enums follow serde's JSON conventions: unit variants
//!   serialize as strings, data variants as single-entry objects.
//! * Untagged enums try each variant in declaration order.
//! * `Option<T>` fields tolerate both `null` and a missing key, matching
//!   serde's implicit-`None` behaviour.

pub use serde_derive::{Deserialize, Serialize};

/// Dynamic JSON-like value — the interchange type of the shim.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Integral JSON number.
    Int(i64),
    /// Non-integral (or out-of-`i64`-range) JSON number.
    Float(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Look up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view (integers widen losslessly enough for test use).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Signed integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 && f.abs() < 9.22e18 => Some(*f as i64),
            _ => None,
        }
    }

    /// Unsigned integer view.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|i| u64::try_from(i).ok())
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Object view (entry list).
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// `true` for `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

static NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<i64> for Value {
    fn eq(&self, other: &i64) -> bool {
        self.as_i64() == Some(*other)
    }
}

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

/// Serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    /// Free-form error.
    pub fn msg(m: impl Into<String>) -> Self {
        Error(m.into())
    }

    /// A required field was absent.
    pub fn missing_field(ty: &str, field: &str) -> Self {
        Error(format!("missing field `{field}` while deserializing {ty}"))
    }

    /// An enum tag did not name a known variant.
    pub fn unknown_variant(ty: &str, tag: &str) -> Self {
        Error(format!("unknown variant `{tag}` for enum {ty}"))
    }

    /// The value had the wrong JSON type.
    pub fn invalid_type(expected: &str, got: &Value) -> Self {
        Error(format!("invalid type: expected {expected}, got {}", got.type_name()))
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// `T -> Value` half of the facade.
pub trait Serialize {
    /// Convert `self` into the dynamic value model.
    fn to_value(&self) -> Value;

    /// `self` in the dynamic value model, borrowed when `self` already is
    /// a [`Value`] — what a renderer reads without copying the document.
    fn as_value(&self) -> std::borrow::Cow<'_, Value> {
        std::borrow::Cow::Owned(self.to_value())
    }
}

/// `&Value -> T` half of the facade.
pub trait Deserialize: Sized {
    /// Reconstruct `Self` from the dynamic value model.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn as_value(&self) -> std::borrow::Cow<'_, Value> {
        (**self).as_value()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn as_value(&self) -> std::borrow::Cow<'_, Value> {
        std::borrow::Cow::Borrowed(self)
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| Error::invalid_type("bool", v))
    }
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                match i64::try_from(*self) {
                    Ok(i) => Value::Int(i),
                    Err(_) => Value::Float(*self as f64),
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let i = v.as_i64().ok_or_else(|| Error::invalid_type("integer", v))?;
                <$t>::try_from(i).map_err(|_| Error::msg(format!(
                    "integer {i} out of range for {}", stringify!($t)
                )))
            }
        }
    )*};
}

int_impls!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::invalid_type("number", v))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str().map(str::to_owned).ok_or_else(|| Error::invalid_type("string", v))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl Deserialize for &'static str {
    /// Leaks the string: only static-labelled fields (e.g. timeline entry
    /// labels) use this, and only in tests/tools, never on a hot path.
    fn from_value(v: &Value) -> Result<Self, Error> {
        String::from_value(v).map(|s| &*Box::leak(s.into_boxed_str()))
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let s = v.as_str().ok_or_else(|| Error::invalid_type("single-char string", v))?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::msg(format!("expected single char, got {s:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::invalid_type("array", v))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = Vec::<T>::from_value(v)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| Error::msg(format!("expected array of {N} elements, got {len}")))
    }
}

macro_rules! tuple_impls {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let arr = v.as_array().ok_or_else(|| Error::invalid_type("tuple array", v))?;
                let expect = [$($idx),+].len();
                if arr.len() != expect {
                    return Err(Error::msg(format!(
                        "expected tuple of {expect} elements, got {}", arr.len()
                    )));
                }
                Ok(($($name::from_value(&arr[$idx])?,)+))
            }
        }
    )*};
}

tuple_impls! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
}

/// Helpers referenced by the generated derive code. Not public API.
#[doc(hidden)]
pub mod __private {
    use super::{Error, Value};

    pub fn as_object<'a>(v: &'a Value, ty: &str) -> Result<&'a Vec<(String, Value)>, Error> {
        v.as_object()
            .ok_or_else(|| Error::msg(format!("expected object for {ty}, got {v:?}")))
    }

    pub fn as_array<'a>(v: &'a Value, ty: &str) -> Result<&'a Vec<Value>, Error> {
        v.as_array()
            .ok_or_else(|| Error::msg(format!("expected array for {ty}, got {v:?}")))
    }

    pub fn get_field<'a>(fields: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
        fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    pub fn check_len(arr: &[Value], expect: usize, ty: &str) -> Result<(), Error> {
        if arr.len() == expect {
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected {expect} elements for {ty}, got {}",
                arr.len()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_index_and_eq() {
        let v = Value::Object(vec![
            ("a".into(), Value::Int(3)),
            ("b".into(), Value::Str("x".into())),
        ]);
        assert_eq!(v["a"], 3i64);
        assert_eq!(v["b"], "x");
        assert!(v["missing"].is_null());
    }

    #[test]
    fn primitive_roundtrip() {
        let v = 42usize.to_value();
        assert_eq!(usize::from_value(&v).unwrap(), 42);
        let v = (1.5f64, 2usize).to_value();
        assert_eq!(<(f64, usize)>::from_value(&v).unwrap(), (1.5, 2));
        let v = Some(3i64).to_value();
        assert_eq!(Option::<i64>::from_value(&v).unwrap(), Some(3));
        assert_eq!(Option::<i64>::from_value(&Value::Null).unwrap(), None);
    }

    #[test]
    fn array_roundtrip() {
        let v = [3usize, 4].to_value();
        assert_eq!(<[usize; 2]>::from_value(&v).unwrap(), [3, 4]);
        assert!(<[usize; 3]>::from_value(&v).is_err());
    }
}
