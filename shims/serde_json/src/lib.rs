//! Offline stand-in for `serde_json`, built on the shimmed `serde::Value`.
//!
//! Provides the subset the workspace uses: `to_string`, `to_string_pretty`,
//! `from_str`, `from_value`, `to_value`, the `json!` macro, and `Value`
//! itself (re-exported from the `serde` shim so derive output and JSON agree
//! on one data model).

pub use serde::{Error, Value};

/// Serialize any `Serialize` type into a [`Value`].
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Deserialize a `T` out of a [`Value`].
pub fn from_value<T: serde::Deserialize>(value: Value) -> Result<T, Error> {
    T::from_value(&value)
}

/// Render compact JSON. A [`Value`] is rendered in place, not copied.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.as_value(), &mut out, None, 0);
    Ok(out)
}

/// Render human-readable JSON (two-space indent). A [`Value`] is rendered
/// in place, not copied.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.as_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Parse JSON text into any `Deserialize` type.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!("trailing characters at byte {}", p.pos)));
    }
    T::from_value(&v)
}

// ---------------------------------------------------------------- writer
//
// Every writer appends to `out` in place: numbers are formatted through
// `fmt::Write` and indentation is pushed a space at a time, so rendering a
// document allocates nothing but `out`'s own growth. Writing to a `String`
// cannot fail, so the `fmt::Result`s are discarded.

use std::fmt::Write as _;

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => write_float(*f, out),
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => write_seq(out, indent, level, items.len(), '[', ']', |out, i| {
            write_value(&items[i], out, indent, level + 1);
        }),
        Value::Object(entries) => write_seq(out, indent, level, entries.len(), '{', '}', |out, i| {
            let (k, val) = &entries[i];
            write_string(k, out);
            out.push(':');
            if indent.is_some() {
                out.push(' ');
            }
            write_value(val, out, indent, level + 1);
        }),
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    level: usize,
    len: usize,
    open: char,
    close: char,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            write_indent(out, w * (level + 1));
        }
        item(out, i);
    }
    if let Some(w) = indent {
        write_indent(out, w * level);
    }
    out.push(close);
}

/// A newline, then `width` spaces.
fn write_indent(out: &mut String, width: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', width));
}

fn write_float(f: f64, out: &mut String) {
    if !f.is_finite() {
        // Real serde_json refuses non-finite floats; nothing in the
        // workspace serializes them, so degrade to null instead of erroring.
        out.push_str("null");
    } else if f == f.trunc() && f.abs() < 1e15 {
        // Keep a fractional marker so the value re-parses as a float-typed
        // number rather than an integer (mirrors serde_json's "1.0").
        let _ = write!(out, "{f:.1}");
    } else {
        // Rust's shortest-roundtrip Display preserves the exact bits.
        let _ = write!(out, "{f}");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
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
    out.push('"');
}

// ---------------------------------------------------------------- parser

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(Error::msg(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::msg(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(Error::msg(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(Error::msg("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(Error::msg("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| Error::msg("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::msg("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by any fixture.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(Error::msg(format!("bad escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => {
                    // Recover full UTF-8 sequences: back up and take the char.
                    self.pos -= 1;
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| Error::msg("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::msg("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::msg(format!("invalid number `{text}`")))
    }
}

// ---------------------------------------------------------------- json!

/// Construct a [`Value`] from JSON-like syntax (subset of serde_json's
/// macro: object/array literals, `null`/`true`/`false`, and arbitrary
/// serializable expressions as values).
#[macro_export]
macro_rules! json {
    ($($json:tt)+) => {
        $crate::json_internal!($($json)+)
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! json_internal {
    // Array munching: accumulate completed element expressions in [..].
    (@array [$($elems:expr,)*]) => {
        ::std::vec![$($elems,)*]
    };
    (@array [$($elems:expr),*]) => {
        ::std::vec![$($elems),*]
    };
    (@array [$($elems:expr,)*] null $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(null)] $($rest)*)
    };
    (@array [$($elems:expr,)*] true $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(true)] $($rest)*)
    };
    (@array [$($elems:expr,)*] false $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(false)] $($rest)*)
    };
    (@array [$($elems:expr,)*] [$($array:tt)*] $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!([$($array)*])] $($rest)*)
    };
    (@array [$($elems:expr,)*] {$($map:tt)*} $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!({$($map)*})] $($rest)*)
    };
    (@array [$($elems:expr,)*] $next:expr, $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($next),] $($rest)*)
    };
    (@array [$($elems:expr,)*] $last:expr) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($last)])
    };
    (@array [$($elems:expr),*] , $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)*] $($rest)*)
    };

    // Object munching: ($key tokens) (remaining tokens) (copy for errors).
    (@object $object:ident () () ()) => {};
    (@object $object:ident [$($key:tt)+] ($value:expr) , $($rest:tt)*) => {
        $object.push((::std::string::String::from($($key)+), $value));
        $crate::json_internal!(@object $object () ($($rest)*) ($($rest)*));
    };
    (@object $object:ident [$($key:tt)+] ($value:expr)) => {
        $object.push((::std::string::String::from($($key)+), $value));
    };
    (@object $object:ident ($($key:tt)+) (: null $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(null)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: true $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(true)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: false $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(false)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: [$($array:tt)*] $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!([$($array)*])) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: {$($map:tt)*} $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!({$($map)*})) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr , $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)) , $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)));
    };
    (@object $object:ident ($($key:tt)*) ($tt:tt $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object ($($key)* $tt) ($($rest)*) $copy);
    };

    // Terminals.
    (null) => {
        $crate::Value::Null
    };
    (true) => {
        $crate::Value::Bool(true)
    };
    (false) => {
        $crate::Value::Bool(false)
    };
    ([]) => {
        $crate::Value::Array(::std::vec::Vec::new())
    };
    ([ $($tt:tt)+ ]) => {
        $crate::Value::Array($crate::json_internal!(@array [] $($tt)+))
    };
    ({}) => {
        $crate::Value::Object(::std::vec::Vec::new())
    };
    ({ $($tt:tt)+ }) => {{
        let mut object: ::std::vec::Vec<(::std::string::String, $crate::Value)> =
            ::std::vec::Vec::from([]);
        $crate::json_internal!(@object object () ($($tt)+) ($($tt)+));
        $crate::Value::Object(object)
    }};
    ($other:expr) => {
        $crate::to_value(&$other)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact() {
        let v = json!({
            "a": 1,
            "b": [1.5, null, true],
            "c": {"nested": "x\"y"},
        });
        let s = to_string(&v).unwrap();
        let back: Value = from_str(&s).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn parses_numbers() {
        let v: Value = from_str("[1, -2, 3.25, 1e3]").unwrap();
        assert_eq!(v[0], 1i64);
        assert_eq!(v[1], -2i64);
        assert_eq!(v[2], 3.25f64);
        assert_eq!(v[3].as_f64().unwrap(), 1000.0);
    }

    #[test]
    fn multi_token_exprs_in_json_macro() {
        let x = vec![1usize, 2, 3];
        let v = json!({
            "len": x.len(),
            "pair": [x.len(), x.capacity() >= x.len()],
        });
        assert_eq!(v["len"], 3i64);
    }

    #[test]
    fn pretty_is_reparseable() {
        let v = json!({"k": [1, {"m": 2.0}]});
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains('\n'));
        let back: Value = from_str(&s).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn writer_bytes_are_pinned() {
        let v = json!({
            "a": [1, -2, 1.0, 0.1, 1e15, "t\u{1}\n"],
            "b": {},
            "c": [[], {"d": null}],
        });
        assert_eq!(
            to_string(&v).unwrap(),
            r#"{"a":[1,-2,1.0,0.1,1000000000000000,"t\u0001\n"],"b":{},"c":[[],{"d":null}]}"#
        );
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            "{\n  \"a\": [\n    1,\n    -2,\n    1.0,\n    0.1,\n    1000000000000000,\n    \
             \"t\\u0001\\n\"\n  ],\n  \"b\": {},\n  \"c\": [\n    [],\n    {\n      \
             \"d\": null\n    }\n  ]\n}"
        );
    }

    #[test]
    fn float_display_roundtrips_exactly() {
        for f in [0.1, 1.0 / 3.0, 1e-30, 123456.789, f64::MAX] {
            let s = to_string(&Value::Float(f)).unwrap();
            let back: Value = from_str(&s).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), f.to_bits(), "{s}");
        }
    }
}
