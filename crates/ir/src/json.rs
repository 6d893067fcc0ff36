//! JSON: the model files the IR reads and writes in place of ONNX, the
//! predictor checkpoints, the database export and the experiment reports.
//!
//! A document is a [`Value`] tree. Parse one with `s.parse::<Value>()`,
//! render it compactly with `v.to_string()` or indented by two spaces with
//! [`Value::to_string_pretty`], and build one with [`json!`](crate::json!).
//! Object keys are kept sorted, so a rendering is a function of the tree
//! alone. Numbers are `f64`; a whole number below 2^53 renders without a
//! fraction, and a non-finite one renders as `null`.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// How deeply arrays and objects may nest in a parsed document. The
/// parser recurses once per level; a bound keeps a hostile file from
/// overflowing the stack.
const MAX_DEPTH: usize = 128;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// Any number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, keys sorted.
    Object(BTreeMap<String, Value>),
}

static NULL: Value = Value::Null;

impl Value {
    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number, if this is a non-negative whole one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value under `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(o) => o.get(key),
            _ => None,
        }
    }

    /// Render indented by two spaces, one item per line.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(2), 0);
        out
    }

    fn render(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => {
                if !n.is_finite() {
                    out.push_str("null");
                } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Value::String(s) => escape_into(s, out),
            Value::Array(items) => render_seq(out, indent, depth, "[]", items, |out, v| {
                v.render(out, indent, depth + 1);
            }),
            Value::Object(map) => render_seq(out, indent, depth, "{}", map, |out, (k, v)| {
                escape_into(k, out);
                out.push_str(if indent.is_some() { ": " } else { ":" });
                v.render(out, indent, depth + 1);
            }),
        }
    }
}

/// Render `items` between the two characters of `brackets`, comma
/// separated, each on its own indented line when pretty.
fn render_seq<I: IntoIterator>(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    brackets: &str,
    items: I,
    mut item: impl FnMut(&mut String, I::Item),
) {
    let (open, close) = brackets.split_at(1);
    out.push_str(open);
    let mut empty = true;
    for (i, it) in items.into_iter().enumerate() {
        empty = false;
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        item(out, it);
    }
    if let (Some(w), false) = (indent, empty) {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
    out.push_str(close);
}

/// Append `s` to `out` as a quoted JSON string: `"` and `\` escaped,
/// newline, carriage return and tab by letter, other control characters
/// as `\u00XX`, everything else as is.
pub fn escape_into(s: &str, out: &mut String) {
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

impl fmt::Display for Value {
    /// The compact rendering: no whitespace at all.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.render(&mut s, None, 0);
        f.write_str(&s)
    }
}

impl std::str::FromStr for Value {
    type Err = Error;
    fn from_str(s: &str) -> Result<Self, Error> {
        let mut p = Parser { src: s, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != s.len() {
            return Err(p.err("trailing input"));
        }
        Ok(v)
    }
}

// -------------------------------------------------------------- parsing

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn err(&self, what: &str) -> Error {
        Error {
            msg: format!("{what} at byte {}", self.pos),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), Error> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// A value whose enclosing arrays and objects number `depth`.
    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// A number as JSON spells one, `-?(0|[1-9][0-9]*)(\.[0-9]+)?
    /// ([eE][+-]?[0-9]+)?`, then read by Rust's `f64` parser (which alone
    /// would also take `01`, `1.` and `1.e5`).
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let bad = || Error {
            msg: format!("invalid number at byte {start}"),
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.digits() {
            0 => return Err(bad()),
            n if n > 1 && self.src.as_bytes()[self.pos - n] == b'0' => return Err(bad()),
            _ => {}
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        self.src[start..self.pos]
            .parse::<f64>()
            .map(Value::Number)
            .map_err(|_| bad())
    }

    /// Skip a run of ASCII digits; how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // character whole: all are ASCII, so the run ends on a
            // character boundary.
            let run = self.src.as_bytes()[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {}
                _ => return Err(self.err("control character in string")),
            }
            self.pos += 1;
            let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let cp = self.hex4()?;
                    // Surrogate pair: combine, else replacement.
                    let c = if (0xD800..0xDC00).contains(&cp) {
                        if self.peek() == Some(b'\\') {
                            self.pos += 1;
                            self.eat(b'u')?;
                            let lo = self.hex4()?;
                            char::from_u32(
                                0x10000 + ((cp - 0xD800) << 10) + (lo.wrapping_sub(0xDC00) & 0x3FF),
                            )
                        } else {
                            None
                        }
                    } else {
                        char::from_u32(cp)
                    };
                    out.push(c.unwrap_or('\u{FFFD}'));
                }
                c => return Err(self.err(&format!("bad escape '\\{}'", c as char))),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let cp = self
            .src
            .get(self.pos..self.pos + 4)
            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    /// The items of an array that is the `depth`-th level of nesting.
    fn array(&mut self, depth: usize) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// The entries of an object that is the `depth`-th level of nesting.
    fn object(&mut self, depth: usize) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            map.insert(key, self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

// ------------------------------------------------------------- indexing

impl std::ops::Index<&str> for Value {
    type Output = Value;
    /// The value under `key`, or `null` if there is none.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    /// The `idx`-th item, or `null` if there is none.
    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

// ---------------------------------------------------------- conversions

macro_rules! from_number {
    ($($ty:ty),* $(,)?) => {
        $(impl From<$ty> for Value {
            fn from(v: $ty) -> Value {
                Value::Number(v as f64)
            }
        })*
    };
}

from_number!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

/// By-reference conversion used by [`json!`](crate::json!): expressions
/// are borrowed, not moved, so struct fields can appear as values without
/// `.clone()`.
#[doc(hidden)]
pub trait ToValue {
    fn to_value(&self) -> Value;
}

macro_rules! to_value_via_copy {
    ($($ty:ty),* $(,)?) => {
        $(impl ToValue for $ty {
            fn to_value(&self) -> Value {
                Value::from(*self)
            }
        })*
    };
}

to_value_via_copy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, bool);

impl ToValue for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl ToValue for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl ToValue for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl<T: ToValue> ToValue for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: ToValue> ToValue for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(ToValue::to_value).collect())
    }
}

impl<T: ToValue, const N: usize> ToValue for [T; N] {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<A: ToValue, B: ToValue> ToValue for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<T: ToValue + ?Sized> ToValue for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

// --------------------------------------------------------------- errors

/// Why a document did not parse; names the byte where it stopped.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

// ----------------------------------------------------------- json! macro

/// Build a [`json::Value`](crate::json::Value) from JSON-ish syntax. Keys
/// must be string literals; values may be nested `{...}` / `[...]`
/// literals, `null`, or any Rust expression of a type the module converts.
#[macro_export]
macro_rules! json {
    ($($tt:tt)+) => { $crate::json_internal!($($tt)+) };
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_internal {
    (null) => { $crate::json::Value::Null };
    ({}) => { $crate::json::Value::Object(::std::collections::BTreeMap::new()) };
    ({ $($body:tt)+ }) => {{
        let mut map = ::std::collections::BTreeMap::<::std::string::String, $crate::json::Value>::new();
        $crate::json_internal!(@object map $($body)+);
        $crate::json::Value::Object(map)
    }};
    ([]) => { $crate::json::Value::Array(::std::vec::Vec::new()) };
    ([ $($body:tt)+ ]) => {{
        #[allow(clippy::vec_init_then_push)]
        let items = {
            let mut items = ::std::vec::Vec::<$crate::json::Value>::new();
            $crate::json_internal!(@array items $($body)+);
            items
        };
        $crate::json::Value::Array(items)
    }};
    ($other:expr) => { $crate::json::ToValue::to_value(&$other) };

    // -- object entries: key is a string literal; value is a nested
    //    literal, null, or a plain expression (expr matching absorbs
    //    everything up to the next top-level comma).
    (@object $map:ident) => {};
    (@object $map:ident $key:literal : null $(, $($rest:tt)*)?) => {
        $map.insert($key.into(), $crate::json::Value::Null);
        $crate::json_internal!(@object $map $($($rest)*)?);
    };
    (@object $map:ident $key:literal : { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $map.insert($key.into(), $crate::json_internal!({ $($inner)* }));
        $crate::json_internal!(@object $map $($($rest)*)?);
    };
    (@object $map:ident $key:literal : [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $map.insert($key.into(), $crate::json_internal!([ $($inner)* ]));
        $crate::json_internal!(@object $map $($($rest)*)?);
    };
    (@object $map:ident $key:literal : $value:expr , $($rest:tt)*) => {
        $map.insert($key.into(), $crate::json::ToValue::to_value(&$value));
        $crate::json_internal!(@object $map $($rest)*);
    };
    (@object $map:ident $key:literal : $value:expr) => {
        $map.insert($key.into(), $crate::json::ToValue::to_value(&$value));
    };

    // -- array elements, same shapes as object values.
    (@array $items:ident) => {};
    (@array $items:ident null $(, $($rest:tt)*)?) => {
        $items.push($crate::json::Value::Null);
        $crate::json_internal!(@array $items $($($rest)*)?);
    };
    (@array $items:ident { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $items.push($crate::json_internal!({ $($inner)* }));
        $crate::json_internal!(@array $items $($($rest)*)?);
    };
    (@array $items:ident [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $items.push($crate::json_internal!([ $($inner)* ]));
        $crate::json_internal!(@array $items $($($rest)*)?);
    };
    (@array $items:ident $value:expr , $($rest:tt)*) => {
        $items.push($crate::json::ToValue::to_value(&$value));
        $crate::json_internal!(@array $items $($rest)*);
    };
    (@array $items:ident $value:expr) => {
        $items.push($crate::json::ToValue::to_value(&$value));
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_shapes() {
        let rows: Vec<Value> = (0..2).map(|i| json!({ "id": i })).collect();
        let v = json!({
            "name": "nnlqp",
            "nested": { "a": 1, "b": [1.5, 2, 3] },
            "rows": rows,
            "flag": true,
            "none": null,
        });
        assert_eq!(v["name"].as_str(), Some("nnlqp"));
        assert_eq!(v["nested"]["a"].as_u64(), Some(1));
        assert_eq!(v["nested"]["b"].as_array().unwrap().len(), 3);
        assert_eq!(v["rows"][1]["id"].as_u64(), Some(1));
        assert_eq!(v["flag"].as_bool(), Some(true));
        assert_eq!(v["none"], Value::Null);
        assert_eq!(v["missing"], Value::Null);
    }

    #[test]
    fn rendering_compact_and_pretty() {
        let v = json!({ "b": [1, 2], "a": "x\"y", "e": [], "o": {} });
        assert_eq!(v.to_string(), r#"{"a":"x\"y","b":[1,2],"e":[],"o":{}}"#);
        assert_eq!(
            v.to_string_pretty(),
            "{\n  \"a\": \"x\\\"y\",\n  \"b\": [\n    1,\n    2\n  ],\n  \"e\": [],\n  \"o\": {}\n}"
        );
        assert_eq!(v.to_string_pretty().parse::<Value>().unwrap(), v);
    }

    #[test]
    fn strings_round_trip_through_escapes_and_multibyte_text() {
        let s = "a\"b\\c\nd\u{1}é😀";
        let mut quoted = String::new();
        escape_into(s, &mut quoted);
        assert_eq!(quoted, "\"a\\\"b\\\\c\\nd\\u0001é😀\"");
        assert_eq!(quoted.parse::<Value>().unwrap().as_str(), Some(s));
        let v: Value = r#""😀\/é""#.parse().unwrap();
        assert_eq!(v.as_str(), Some("😀/é"));
        for bad in [r#""abc"#, r#""\q""#, r#""\u12""#, r#""\u12é""#] {
            assert!(bad.parse::<Value>().is_err(), "{bad}");
        }
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(nest(MAX_DEPTH).parse::<Value>().is_ok());
        let err = nest(MAX_DEPTH + 1).parse::<Value>().unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        let objects = |n: usize| "{\"a\":".repeat(n) + "0" + &"}".repeat(n);
        assert!(objects(MAX_DEPTH).parse::<Value>().is_ok());
        assert!(objects(MAX_DEPTH + 1).parse::<Value>().is_err());
    }

    #[test]
    fn far_too_deep_input_is_an_error_not_a_stack_overflow() {
        assert!("[".repeat(100_000).parse::<Value>().is_err());
        assert!("{\"a\":".repeat(100_000).parse::<Value>().is_err());
    }

    #[test]
    fn numbers_are_refused_unless_json_spells_them() {
        for (text, want) in [
            ("0", 0.0f64),
            ("-0", -0.0),
            ("7", 7.0),
            ("-12.5", -12.5),
            ("1e5", 1e5),
            ("1E+5", 1e5),
            ("2.5e-3", 2.5e-3),
            ("0.0e0", 0.0),
        ] {
            let v: Value = text.parse().unwrap();
            assert_eq!(v.as_f64().map(f64::to_bits), Some(want.to_bits()), "{text}");
        }
        for bad in [
            "01", "-01", "00", "1.", "1.e5", "-", "-.5", "1e", "1e+", "1.5e", "+1", "[01]", "[1.]",
        ] {
            assert!(bad.parse::<Value>().is_err(), "{bad}");
        }
    }

    #[test]
    fn raw_control_characters_in_strings_are_refused() {
        for c in ['\t', '\n', '\r', '\u{0}', '\u{1f}'] {
            let text = format!("\"a{c}b\"");
            assert!(text.parse::<Value>().is_err(), "{c:?}");
        }
        // Escaped, each is fine.
        let v: Value = r#""a\tb\u001fc""#.parse().unwrap();
        assert_eq!(v.as_str(), Some("a\tb\u{1f}c"));
        // And a `\u` escape takes four hex digits, no sign.
        assert!(r#""\u+041""#.parse::<Value>().is_err());
    }
}
