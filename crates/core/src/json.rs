//! The workspace's one JSON codec, shared by ledgers, `--agg` summaries,
//! spend journals, selection profiles and HTTP bodies: the string
//! escaper ([`escape_into`]), the float writer ([`Float`]) and the reader
//! ([`Object::parse`], [`parse_array`]). Record templates stay with their
//! writers.
//!
//! The reader is strict about structure — exactly one value, quoted
//! keys, balanced brackets, nothing after the close — and lazy about
//! content. Numbers come back as raw text ([`Value::Num`]) for the
//! caller's `str::parse`, so floats round-trip bit for bit; any bare
//! token but `true`/`false`/`null` counts as number text, so the `inf`
//! and `NaN` Rust's `Display` writes into ledgers read back. Nested
//! arrays and objects come back as raw slices that the same reader
//! parses again on demand, so skipping one never recurses.

use std::borrow::Cow;
use std::fmt::{self, Write};
use std::str::FromStr;

/// Append `s` to `out` as the body of a JSON string (no surrounding
/// quotes): `"` and `\` are backslash-escaped, a newline becomes `\n`,
/// and every other control character becomes `\u00XX`.
pub fn escape_into(out: &mut String, s: &str) {
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[start..i]);
        if escaped.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escaped);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
}

/// A float formatted as a JSON number: Rust's shortest round-trip
/// digits, so parse → format reproduces the bytes, or `null` for a
/// non-finite value (JSON has no `inf` or `NaN` tokens).
#[derive(Debug, Clone, Copy)]
pub struct Float(pub f64);

impl fmt::Display for Float {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// A string, escapes decoded (borrowed when it had none).
    Str(Cow<'a, str>),
    /// A number, or any other bare token: the raw text, for `str::parse`.
    Num(&'a str),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// A nested array: the raw `[…]` slice, for [`parse_array`].
    Arr(&'a str),
    /// A nested object: the raw `{…}` slice, for [`Object::parse`].
    Obj(&'a str),
}

impl Value<'_> {
    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number text parsed as `T`, if this is a number that parses.
    pub fn parse<T: FromStr>(&self) -> Option<T> {
        match self {
            Value::Num(text) => text.parse().ok(),
            _ => None,
        }
    }
}

/// One parsed JSON object: its fields in file order.
#[derive(Debug, Clone, PartialEq)]
pub struct Object<'a> {
    fields: Vec<(Cow<'a, str>, Value<'a>)>,
}

impl<'a> Object<'a> {
    /// Parse `text` as exactly one object, whitespace allowed around it.
    pub fn parse(text: &'a str) -> Result<Object<'a>, String> {
        let mut fields = Vec::with_capacity(16);
        Reader::list(text, b'{', b'}', |r| {
            let key = r.string()?;
            r.skip_ws();
            r.expect(b':')?;
            r.skip_ws();
            fields.push((key, r.value()?));
            Ok(())
        })?;
        Ok(Object { fields })
    }

    /// The value of the first field named `key`.
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string value of `key`.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }

    /// The number value of `key`, parsed as `T`.
    pub fn num<T: FromStr>(&self, key: &str) -> Option<T> {
        self.get(key)?.parse()
    }

    /// Every field, in file order.
    pub fn into_fields(self) -> Vec<(Cow<'a, str>, Value<'a>)> {
        self.fields
    }
}

/// Parse `text` as exactly one array, whitespace allowed around it.
pub fn parse_array(text: &str) -> Result<Vec<Value<'_>>, String> {
    let mut items = Vec::new();
    Reader::list(text, b'[', b']', |r| {
        items.push(r.value()?);
        Ok(())
    })?;
    Ok(items)
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    /// `text` as one `open … close` list whose members `member` parses,
    /// with only whitespace around it.
    fn list(
        text: &'a str,
        open: u8,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut r = Reader { text, pos: 0 };
        r.skip_ws();
        r.expect(open)?;
        r.skip_ws();
        if r.peek() == Some(close) {
            r.pos += 1;
        } else {
            loop {
                r.skip_ws();
                member(&mut r)?;
                r.skip_ws();
                match r.next() {
                    Some(b',') => {}
                    Some(b) if b == close => break,
                    other => {
                        let (close, other) = (char::from(close), other.map(char::from));
                        return Err(format!("expected ',' or {close:?}, got {other:?}"));
                    }
                }
            }
        }
        r.skip_ws();
        if r.pos == text.len() {
            Ok(())
        } else {
            Err("trailing bytes after JSON value".into())
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!(
                "expected {:?}, got {:?}",
                char::from(want),
                other.map(char::from)
            )),
        }
    }

    /// A quoted string, escapes decoded.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        let mut run = self.pos;
        loop {
            match self.next() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    let tail = &self.text[run..self.pos - 1];
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(&self.text[run..self.pos - 1]);
                    let c = match self.next() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let mut code = 0_u32;
                            for _ in 0..4 {
                                let d = self.next().ok_or("truncated \\u escape")?;
                                code = code * 16
                                    + char::from(d).to_digit(16).ok_or("bad \\u escape digit")?;
                            }
                            char::from_u32(code).ok_or("invalid \\u code point")?
                        }
                        other => return Err(format!("bad escape {:?}", other.map(char::from))),
                    };
                    s.push(c);
                    run = self.pos;
                }
                Some(b) if b < 0x20 => return Err("raw control byte in string".into()),
                // Bytes of multi-byte characters are never ASCII, so the
                // slices above always fall on character boundaries.
                Some(_) => {}
            }
        }
    }

    fn value(&mut self) -> Result<Value<'a>, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => Ok(Value::Arr(self.nested()?)),
            Some(b'{') => Ok(Value::Obj(self.nested()?)),
            _ => {
                let start = self.pos;
                let bare = |b: u8| b.is_ascii_alphanumeric() || matches!(b, b'+' | b'-' | b'.');
                while self.peek().is_some_and(bare) {
                    self.pos += 1;
                }
                match &self.text[start..self.pos] {
                    "" => Err(format!("unexpected {:?}", self.peek().map(char::from))),
                    "true" => Ok(Value::Bool(true)),
                    "false" => Ok(Value::Bool(false)),
                    "null" => Ok(Value::Null),
                    text => Ok(Value::Num(text)),
                }
            }
        }
    }

    /// The raw slice of the array or object opening here, found by
    /// bracket depth (strings skipped); its content is checked when the
    /// caller parses the slice.
    fn nested(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        let mut depth = 0_usize;
        loop {
            match self.peek() {
                None => return Err("unterminated array or object".into()),
                Some(b'"') => {
                    self.string()?;
                }
                Some(b'[' | b'{') => {
                    depth += 1;
                    self.pos += 1;
                }
                Some(b']' | b'}') => {
                    self.pos += 1;
                    depth -= 1;
                    if depth == 0 {
                        return Ok(&self.text[start..self.pos]);
                    }
                }
                Some(_) => self.pos += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_quotes_backslashes_and_control_bytes() {
        let mut out = String::from("<");
        escape_into(&mut out, "a\"b\\c\nd\u{1}\té");
        assert_eq!(out, "<a\\\"b\\\\c\\nd\\u0001\\u0009é");
        let line = format!("{{\"k\":\"{}\"}}", &out[1..]);
        let back = Object::parse(&line).unwrap();
        assert_eq!(back.str("k"), Some("a\"b\\c\nd\u{1}\té"));
    }

    #[test]
    fn floats_are_shortest_round_trip_or_null() {
        assert_eq!(Float(0.1).to_string(), "0.1");
        assert_eq!(Float(-0.0).to_string(), "-0");
        assert_eq!(Float(1.0 / 3.0).to_string(), "0.3333333333333333");
        assert_eq!(Float(f64::NAN).to_string(), "null");
        assert_eq!(Float(f64::NEG_INFINITY).to_string(), "null");
        for v in [5e-324, 1e-300, f64::MAX, -2.5e10] {
            let text = Float(v).to_string();
            assert_eq!(text.parse::<f64>().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn numbers_and_bare_tokens_come_back_as_raw_text() {
        let o = Object::parse(r#"{"a":-0,"b":1e-5,"c":inf,"d":NaN,"e":true,"f":null}"#).unwrap();
        assert_eq!(o.get("a"), Some(&Value::Num("-0")));
        assert_eq!(o.num::<f64>("a").unwrap().to_bits(), (-0.0_f64).to_bits());
        assert_eq!(o.num::<f64>("b"), Some(1e-5));
        assert_eq!(o.num::<f64>("c"), Some(f64::INFINITY));
        assert!(o.num::<f64>("d").unwrap().is_nan());
        assert_eq!(o.get("e"), Some(&Value::Bool(true)));
        assert_eq!(o.get("f"), Some(&Value::Null));
        assert_eq!(o.num::<u64>("b"), None, "not an integer");
        let torn = Object::parse(r#"{"pos":1x}"#).unwrap();
        assert_eq!(torn.get("pos"), Some(&Value::Num("1x")));
        assert_eq!(
            torn.num::<usize>("pos"),
            None,
            "the caller's parse rejects it"
        );
        assert_eq!(o.str("a"), None, "a number is not a string");
    }

    #[test]
    fn nested_values_are_raw_slices_the_reader_parses_again() {
        let o = Object::parse(r#"{"cent":[[0.5,1],[2,3]],"empty":[],"o":{"x":"]"}}"#).unwrap();
        let Some(Value::Arr(cent)) = o.get("cent") else {
            panic!("cent is an array")
        };
        let pairs: Vec<(f64, f64)> = parse_array(cent)
            .unwrap()
            .iter()
            .map(|p| match p {
                Value::Arr(p) => {
                    let p = parse_array(p).unwrap();
                    (p[0].parse().unwrap(), p[1].parse().unwrap())
                }
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(pairs, [(0.5, 1.0), (2.0, 3.0)]);
        assert_eq!(o.get("empty"), Some(&Value::Arr("[]")));
        let Some(Value::Obj(inner)) = o.get("o") else {
            panic!("o is an object")
        };
        assert_eq!(Object::parse(inner).unwrap().str("x"), Some("]"));
    }

    /// Keys match only as keys: a key-looking pattern inside an earlier
    /// string value never shadows the real field, and commas or record
    /// separators inside quoted values don't end a value.
    #[test]
    fn reader_is_string_aware() {
        let line = "{\"t\":\"cell\",\"note\":\"fake \\\"dims\\\": 9,\",\"dims\":2}";
        let o = Object::parse(line).unwrap();
        assert_eq!(o.num::<u8>("dims"), Some(2));
        assert_eq!(o.str("note"), Some("fake \"dims\": 9,"));
        let rec =
            Object::parse("{\"m\":\"AHP*\",\"n\":64,\"params\":\"rho=0.85,eta=1.5\"}").unwrap();
        assert_eq!(rec.num::<u64>("n"), Some(64));
        assert_eq!(rec.str("params"), Some("rho=0.85,eta=1.5"));
        let records = parse_array("[{\"a\":1},{\"b\":\"},{\"}]").unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1], Value::Obj("{\"b\":\"},{\"}"));
        assert!(parse_array("[{\"a\":1}garbage]").is_err());
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let o = Object::parse(r#"{"plain":"abc","esc":"a\u0041\/b"}"#).unwrap();
        assert!(matches!(
            o.get("plain"),
            Some(Value::Str(Cow::Borrowed("abc")))
        ));
        assert_eq!(o.str("esc"), Some("aA/b"));
    }

    #[test]
    fn malformed_input_is_rejected() {
        for bad in [
            "",
            "{",
            "{\"k\":1",
            "{\"k\":}",
            "{\"k\":1,}",
            "{\"k\" 1}",
            "{k:1}",
            "{\"k\":1} extra",
            "{\"k\":1 2}",
            "{\"k\":\"unterminated}",
            "{\"k\":\"raw\ncontrol\"}",
            "{\"k\":\"\\q\"}",
            "{\"k\":\"\\u12\"}",
            "{\"k\":[1,2}",
            "{\"t\":\"u\",\"pos\":1",
        ] {
            assert!(Object::parse(bad).is_err(), "accepted {bad:?}");
        }
        for bad in ["[1,]", "[1 2]", "[1,2] x", "{}"] {
            assert!(parse_array(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(Object::parse(" {} \n").unwrap().into_fields().len(), 0);
    }

    #[test]
    fn deep_nesting_does_not_recurse() {
        let deep = format!("{{\"k\":{}{}}}", "[".repeat(100_000), "]".repeat(100_000));
        let o = Object::parse(&deep).unwrap();
        assert!(matches!(o.get("k"), Some(Value::Arr(_))));
    }
}
