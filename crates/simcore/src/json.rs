//! Minimal JSON reader/writer for experiment dumps.
//!
//! Replaces the former serde/serde_json dependency. Supports writing
//! (objects, arrays, strings with full RFC 8259 escaping, integers,
//! floats, booleans, null) and a recursive-descent [`Json::parse`]
//! used by `adios-report` to read metrics documents back. Floats use
//! Rust's shortest round-trip formatting; non-finite floats serialize
//! as `null` (JSON has no NaN/Infinity).

use std::fmt::Write as _;

/// A JSON value tree, built with the [`From`] conversions and
/// [`Json::obj`] / [`Json::arr`], then serialized with
/// [`Json::to_string`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integer number (serialized without a decimal point).
    Int(i64),
    /// Floating-point number.
    Num(f64),
    /// String (escaped on output).
    Str(String),
    /// Array of values.
    Arr(Vec<Json>),
    /// Object: insertion-ordered key/value pairs (deterministic dumps).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Empty object builder.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Array from anything convertible to values.
    pub fn arr<T: Into<Json>, I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Add a field to an object (panics on non-objects); consumes and
    /// returns `self` so fields chain.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("field() on non-object {other:?}"),
        }
        self
    }

    /// Look up a field of an object (`None` on non-objects or missing
    /// keys) — the read half benches use to consume metrics documents.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as an integer, if it is one.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Serialize into `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(xs) => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    x.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Serialize to a fresh string.
    #[allow(clippy::inherent_to_string)]
    pub fn to_string(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(xs) => Some(xs),
            _ => None,
        }
    }

    /// The object's fields in document order, if it is an object.
    pub fn entries(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Parse a JSON document (RFC 8259 subset matching what [`write`]
    /// emits, plus arbitrary whitespace). Returns a message with the
    /// byte offset on malformed input. Numbers without `.`/`e` parse
    /// as [`Json::Int`] when they fit, otherwise [`Json::Num`].
    ///
    /// [`write`]: Json::write
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser { b: input.as_bytes(), i: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.i) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.i)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pair: a high surrogate must be
                            // followed by \uXXXX with a low surrogate.
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                if self.peek() == Some(b'\\') {
                                    self.i += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    let full = 0x10000
                                        + ((cp - 0xd800) << 10)
                                        + (lo.wrapping_sub(0xdc00) & 0x3ff);
                                    char::from_u32(full)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or(format!("bad \\u escape before byte {}", self.i))?);
                        }
                        other => {
                            return Err(format!(
                                "bad escape '\\{}' at byte {}",
                                other as char, self.i
                            ))
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so the
                    // bytes are valid UTF-8; find the char boundary).
                    let rest = &self.b[self.i..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid utf-8")?;
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.i += c.len_utf8();
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.i + 4;
        if end > self.b.len() {
            return Err("truncated \\u escape".to_string());
        }
        let s = std::str::from_utf8(&self.b[self.i..end]).map_err(|_| "bad \\u escape")?;
        let v = u32::from_str_radix(s, 16).map_err(|_| format!("bad \\u escape at byte {}", self.i))?;
        self.i = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.i += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.i += 1;
                }
                _ => break,
            }
        }
        let s = std::str::from_utf8(&self.b[start..self.i]).map_err(|_| "bad number")?;
        if !float {
            if let Ok(i) = s.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{s}' at byte {start}"))
    }
}

/// Write `s` as a quoted, escaped JSON string.
fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}
impl From<u64> for Json {
    fn from(i: u64) -> Json {
        // Dumps never exceed i64 range in practice; saturate defensively.
        Json::Int(i64::try_from(i).unwrap_or(i64::MAX))
    }
}
impl From<u32> for Json {
    fn from(i: u32) -> Json {
        Json::Int(i as i64)
    }
}
impl From<usize> for Json {
    fn from(i: usize) -> Json {
        Json::Int(i64::try_from(i).unwrap_or(i64::MAX))
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(xs: Vec<T>) -> Json {
        Json::arr(xs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::from(true).to_string(), "true");
        assert_eq!(Json::from(-3i64).to_string(), "-3");
        assert_eq!(Json::from(2.5).to_string(), "2.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn string_escaping() {
        assert_eq!(
            Json::from("a\"b\\c\nd\te\u{01}").to_string(),
            r##""a\"b\\c\nd\te\u0001""##
        );
        assert_eq!(Json::from("héllo ☃").to_string(), "\"héllo ☃\"");
    }

    #[test]
    fn nested_structure() {
        let j = Json::obj()
            .field("name", "sort")
            .field("times", vec![1.5, 2.0])
            .field("meta", Json::obj().field("vms", 4u32).field("ok", true));
        assert_eq!(
            j.to_string(),
            r#"{"name":"sort","times":[1.5,2],"meta":{"vms":4,"ok":true}}"#
        );
    }

    #[test]
    fn object_preserves_insertion_order() {
        let j = Json::obj().field("z", 1i64).field("a", 2i64);
        assert_eq!(j.to_string(), r#"{"z":1,"a":2}"#);
    }

    /// Random string with a bias toward escape-heavy content: control
    /// characters, quotes, backslashes, multi-byte UTF-8, surrogate-pair
    /// astral plane characters.
    fn gen_string(g: &mut crate::check::Gen) -> String {
        let len = g.usize_in(0, 24);
        let mut s = String::new();
        for _ in 0..len {
            match g.u32_in(0, 6) {
                0 => s.push(char::from_u32(g.u32_in(0, 0x1f)).unwrap()),
                1 => s.push(*g.pick(&['"', '\\', '/', '\n', '\r', '\t'])),
                2 => s.push(char::from_u32(g.u32_in(0x20, 0x7e)).unwrap()),
                3 => s.push(*g.pick(&['é', '☃', 'ß', '中'])),
                4 => s.push(*g.pick(&['😀', '𝄞', '🚀'])),
                5 => s.push('\u{7f}'),
                _ => s.push(char::from_u32(g.u32_in(0x80, 0x7ff)).unwrap()),
            }
        }
        s
    }

    #[test]
    fn prop_string_escape_round_trip() {
        // Any string the writer can emit must come back bit-identical
        // through the parser — the contract the cross-run tables' doc
        // loading leans on.
        crate::check::check(300, |g| {
            let s = gen_string(g);
            let text = Json::Str(s.clone()).to_string();
            let back = Json::parse(&text).expect("writer output parses");
            assert_eq!(back, Json::Str(s), "via {text}");
        });
    }

    #[test]
    fn prop_number_round_trip() {
        crate::check::check(300, |g| {
            // Integers: full i64 range, including extremes.
            let i = match g.u32_in(0, 3) {
                0 => i64::MIN + g.u64_in(0, 1000) as i64,
                1 => i64::MAX - g.u64_in(0, 1000) as i64,
                _ => g.u64_in(0, u64::MAX) as i64,
            };
            let back = Json::parse(&Json::Int(i).to_string()).expect("int parses");
            assert_eq!(back, Json::Int(i));
            // Floats: shortest round-trip formatting must re-parse to
            // the same bits (sweep over magnitudes, including subnormal
            // and huge).
            let exp = g.f64_in(-300.0, 300.0);
            let mantissa = g.f64_in(-10.0, 10.0);
            let f = mantissa * 10f64.powf(exp);
            if f.is_finite() {
                let text = Json::Num(f).to_string();
                match Json::parse(&text).expect("float parses") {
                    Json::Num(b) => assert_eq!(b.to_bits(), f.to_bits(), "via {text}"),
                    Json::Int(b) => assert_eq!(b as f64, f, "via {text}"),
                    other => panic!("number parsed as {other:?}"),
                }
            }
        });
    }

    #[test]
    fn prop_document_round_trip() {
        // Small random documents (the shape the store ingests): object
        // of scalars and arrays with escape-heavy keys.
        crate::check::check(150, |g| {
            let mut doc = Json::obj();
            let fields = g.usize_in(1, 6);
            for i in 0..fields {
                let key = format!("{}_{i}", gen_string(g));
                let val = match g.u32_in(0, 4) {
                    0 => Json::Str(gen_string(g)),
                    1 => Json::Int(g.u64_in(0, u64::MAX) as i64),
                    2 => Json::Bool(g.bool()),
                    3 => Json::Arr((0..g.usize_in(0, 4)).map(|k| Json::Int(k as i64)).collect()),
                    _ => Json::Null,
                };
                doc = doc.field(&key, val);
            }
            let text = doc.to_string();
            let back = Json::parse(&text).expect("doc parses");
            assert_eq!(back.to_string(), text);
        });
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let j = Json::obj()
            .field("schema", "adios.metrics/2")
            .field("xs", vec![1.5, 2.0, -3.25])
            .field("n", -42i64)
            .field("big", u64::MAX)
            .field("flag", true)
            .field("none", Json::Null)
            .field("s", "a\"b\\c\nd\u{01}é☃")
            .field("nested", Json::obj().field("deep", Json::arr([1u64, 2, 3])));
        let text = j.to_string();
        let back = Json::parse(&text).expect("parse");
        assert_eq!(back.to_string(), text);
    }

    #[test]
    fn parse_accepts_whitespace_and_ints() {
        let j = Json::parse(" { \"a\" : [ 1 , 2.5 ,\n\t-3 ] } ").unwrap();
        assert_eq!(j.get("a").unwrap().as_arr().unwrap()[0], Json::Int(1));
        assert_eq!(j.get("a").unwrap().as_arr().unwrap()[1], Json::Num(2.5));
        assert_eq!(j.get("a").unwrap().as_arr().unwrap()[2], Json::Int(-3));
    }

    #[test]
    fn parse_unicode_escapes() {
        // é = é; 😀 = 😀 (surrogate pair); raw UTF-8 too.
        assert_eq!(
            Json::parse("\"A\\u00e9\\ud83d\\ude00 é☃\"").unwrap(),
            Json::Str("Aé😀 é☃".to_string())
        );
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in ["{", "[1,", "\"abc", "{\"a\":}", "1 2", "tru", "{'a':1}"] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }
}
