//! The workspace's one JSON format: a writer with a single layout, a
//! minimal reader, and a flat-schema check.
//!
//! Every machine-readable artifact (`stats.json`, `rma-chaos --json`,
//! the bench reports) is built as a [`Value`] and rendered here. Every
//! checker reads it back with [`parse_as`], which demands exactly the
//! key paths and value kinds of the writer's own output for a
//! zero-valued sample, so an artifact's keys are spelled only in its
//! writer. Separators are compact (no space after `:` or `,`); strings
//! escape `"`, `\` and control characters (as `\u00XX`).

use std::ops::Index;

/// A JSON value. A number keeps its literal text, so what is written is
/// what is read; an object keeps its fields in order.
#[derive(Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A finite number's literal text.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(Vec<(String, Value)>),
}

/// An object from `(key, value)` fields, in order.
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A number with exactly `decimals` fractional digits. A non-finite `x`
/// renders as text no reader accepts, so a writer's self-check fails.
pub fn fixed(x: f64, decimals: usize) -> Value {
    Value::Num(format!("{x:.decimals$}"))
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Num(n.to_string())
            }
        }
    )*};
}
from_int!(u32, u64, usize);

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

/// `value["key"]`: the field, or `Null` when absent or not an object.
impl Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        let Value::Obj(fields) = self else { return &Value::Null };
        fields.iter().find(|(k, _)| k == key).map_or(&Value::Null, |(_, v)| v)
    }
}

impl Value {
    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        if let Value::Str(s) = self {
            Some(s)
        } else {
            None
        }
    }

    /// The number as a float, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        if let Value::Num(n) = self {
            n.parse().ok()
        } else {
            None
        }
    }

    /// The number, if it is an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        if let Value::Num(n) = self {
            n.parse().ok()
        } else {
            None
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        if let Value::Arr(items) = self {
            Some(items)
        } else {
            None
        }
    }

    /// Every object key as a dotted path (array elements add no
    /// segment), in document order.
    pub fn key_paths(&self) -> Vec<String> {
        match self {
            Value::Obj(fields) => fields
                .iter()
                .flat_map(|(k, v)| {
                    let below = v.key_paths().into_iter().map(move |p| format!("{k}.{p}"));
                    std::iter::once(k.clone()).chain(below)
                })
                .collect(),
            Value::Arr(items) => items.iter().flat_map(Value::key_paths).collect(),
            _ => Vec::new(),
        }
    }

    /// The value on one line.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// A multi-record document: one top-level field per line, one
    /// element per line in a top-level array, and a final newline.
    pub fn to_document(&self) -> String {
        let Value::Obj(fields) = self else { return self.to_line() + "\n" };
        let mut out = String::new();
        list(&mut out, ["{\n  ", ",\n  ", "\n}\n"], fields, |out, (k, v)| {
            field(out, k);
            match v {
                Value::Arr(items) => {
                    list(out, ["[\n    ", ",\n    ", "\n  ]"], items, |out, v| v.write(out))
                }
                v => v.write(out),
            }
        });
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => out.push_str(n),
            Value::Str(s) => string(out, s),
            Value::Arr(items) => list(out, ["[", ",", "]"], items, |out, v| v.write(out)),
            Value::Obj(fields) => list(out, ["{", ",", "}"], fields, |out, (k, v)| {
                field(out, k);
                v.write(out)
            }),
        }
    }

    /// What the schema check compares; an unsigned integer literal is
    /// a kind apart from other numbers.
    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(n) if n.bytes().all(|b| b.is_ascii_digit()) => "integer",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }
}

/// Writes `items` between `open` and `close`, separated by `sep`; an
/// empty list is written as `open` and `close` stripped of whitespace.
fn list<T>(
    out: &mut String,
    [open, sep, close]: [&str; 3],
    items: &[T],
    each: impl Fn(&mut String, &T),
) {
    if items.is_empty() {
        return out.push_str(&format!("{}{}", open.trim_end(), close.trim_start()));
    }
    out.push_str(open);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        each(out, item);
    }
    out.push_str(close);
}

fn field(out: &mut String, key: &str) {
    string(out, key);
    out.push(':');
}

fn string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON value filling all of `text` (whitespace around it
/// allowed). Rejects truncation, trailing bytes, duplicate keys,
/// non-finite numbers, and nesting deeper than 64.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, at: 0 };
    let v = p.value(0)?;
    p.ws();
    if p.at < text.len() {
        return Err(p.err("trailing bytes"));
    }
    Ok(v)
}

/// Parses `text` and checks it has the shape of `sample`, the writer's
/// own output for a zero-valued sample: the same keys at every path,
/// the same value kinds, and every array element shaped like the
/// sample array's first element. Returns the parsed document.
pub fn parse_as(text: &str, sample: &str) -> Result<Value, String> {
    fn shape(doc: &Value, sample: &Value, path: &str) -> Result<(), String> {
        match (doc, sample) {
            (Value::Obj(d), Value::Obj(s)) => {
                if let Some((k, _)) = d.iter().find(|(k, _)| s.iter().all(|(sk, _)| sk != k)) {
                    return Err(format!("unknown key {path}.{k}"));
                }
                s.iter().try_for_each(|(k, sv)| match d.iter().find(|(dk, _)| dk == k) {
                    Some((_, dv)) => shape(dv, sv, &format!("{path}.{k}")),
                    None => Err(format!("missing key {path}.{k}")),
                })
            }
            (Value::Arr(d), Value::Arr(s)) => d.iter().enumerate().try_for_each(|(i, dv)| {
                let sv = s.first().ok_or_else(|| format!("unexpected element {path}[{i}]"))?;
                shape(dv, sv, &format!("{path}[{i}]"))
            }),
            _ if doc.kind() == sample.kind() => Ok(()),
            _ => Err(format!("{path}: expected {}, found {}", sample.kind(), doc.kind())),
        }
    }
    let doc = parse(text)?;
    shape(&doc, &parse(sample).map_err(|e| format!("schema sample: {e}"))?, "$")?;
    Ok(doc)
}

/// Nesting bound, so a hostile document cannot overflow the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        match self.text[self.at..].chars().next() {
            None => format!("{what}: unexpected end of input"),
            Some(c) => format!("{what} at offset {} ({c:?})", self.at),
        }
    }

    fn ws(&mut self) {
        let rest = &self.text[self.at..];
        self.at += rest.len() - rest.trim_start_matches([' ', '\t', '\n', '\r']).len();
    }

    /// Skips whitespace, then consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        self.ws();
        let hit = self.text.as_bytes().get(self.at) == Some(&b);
        self.at += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.ws();
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        for (word, v) in [("null", Value::Null), ("true", true.into()), ("false", false.into())] {
            if self.text[self.at..].starts_with(word) {
                self.at += word.len();
                return Ok(v);
            }
        }
        match self.text.as_bytes().get(self.at) {
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => {
                self.at += 1;
                self.list(b']', |p| p.value(depth + 1)).map(Value::Arr)
            }
            Some(b'{') => {
                self.at += 1;
                let fields = self.list(b'}', |p| {
                    let key = p.string()?;
                    p.expect(b':')?;
                    Ok((key, p.value(depth + 1)?))
                })?;
                let seen = |i: usize| fields[..i].iter().any(|(k, _)| *k == fields[i].0);
                match (0..fields.len()).find(|&i| seen(i)) {
                    Some(i) => Err(format!("duplicate key {:?}", fields[i].0)),
                    None => Ok(Value::Obj(fields)),
                }
            }
            _ => Err(self.err("expected a value")),
        }
    }

    /// Comma-separated items up to `close` (the opener already read).
    fn list<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut items = Vec::new();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat(close) {
                return Ok(items);
            }
            self.expect(b',')?;
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, finite.
    fn number(&mut self) -> Result<Value, String> {
        let rest = &self.text[self.at..];
        let end = rest.find(|c: char| !c.is_ascii_digit() && !"+-.eE".contains(c));
        let lit = &rest[..end.unwrap_or(rest.len())];
        let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
        let unsigned = lit.strip_prefix('-').unwrap_or(lit);
        let (mantissa, exp) = unsigned.split_once(['e', 'E']).unwrap_or((unsigned, "0"));
        let (int, frac) = mantissa.split_once('.').unwrap_or((mantissa, "0"));
        let exp = exp.strip_prefix(['+', '-']).unwrap_or(exp);
        let no_lead_zero = int == "0" || !int.starts_with('0');
        let grammar = digits(int) && digits(frac) && digits(exp) && no_lead_zero;
        if !grammar || !lit.parse::<f64>().is_ok_and(f64::is_finite) {
            return Err(self.err(&format!("bad or non-finite number {lit:?}")));
        }
        self.at += lit.len();
        Ok(Value::Num(lit.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.at..];
            let run = rest.find(|c: char| c == '"' || c == '\\' || c < ' ').unwrap_or(rest.len());
            out.push_str(&rest[..run]);
            self.at += run;
            let escape = match &rest.as_bytes()[run..] {
                [] => return Err(self.err("unterminated string")),
                [b'"', ..] => {
                    self.at += 1;
                    return Ok(out);
                }
                [b'\\', b'u', ..] => {
                    // Surrogate pairs are not decoded: no writer here
                    // emits them.
                    let hex = rest.get(run + 2..run + 6);
                    let hex = hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
                    hex.and_then(|h| char::from_u32(u32::from_str_radix(h, 16).ok()?))
                        .map(|c| (c, 6))
                }
                [b'\\', e, ..] => {
                    let i = b"\"\\/bfnrt".iter().position(|x| x == e);
                    i.map(|i| (['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t'][i], 2))
                }
                _ => None,
            };
            let (c, len) = escape.ok_or_else(|| self.err("bad escape or control character"))?;
            out.push(c);
            self.at += len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        obj([
            ("name", "a\"b\\c\u{1}é".into()),
            ("n", 7u64.into()),
            ("x", fixed(0.25, 4)),
            ("ok", true.into()),
            ("none", Value::Null),
            ("rows", Value::Arr(vec![obj([("k", 1u32.into())]), obj([("k", 2u32.into())])])),
        ])
    }

    #[test]
    fn writes_one_compact_layout_and_reads_it_back() {
        let v = sample();
        let line = v.to_line();
        assert_eq!(
            line,
            concat!(
                r#"{"name":"a\"b\\c\u0001é","n":7,"x":0.2500,"ok":true,"none":null,"#,
                r#""rows":[{"k":1},{"k":2}]}"#,
            )
        );
        assert_eq!(parse(&line).unwrap(), v);
        let doc = v.to_document();
        let expected = r#"{
  "name":"a\"b\\c\u0001é",
  "n":7,
  "x":0.2500,
  "ok":true,
  "none":null,
  "rows":[
    {"k":1},
    {"k":2}
  ]
}
"#;
        assert_eq!(doc, expected);
        assert_eq!(parse(&doc).unwrap(), v);
    }

    #[test]
    fn reads_spaced_json_and_every_escape() {
        let v = parse(r#" { "a" : [ 1 , -2.5e3 , "\"\\\n\t\/\u00e9\b\f\r" ] } "#).unwrap();
        assert_eq!(v["a"].as_array().unwrap()[1].as_f64(), Some(-2500.0));
        assert_eq!(v["a"].as_array().unwrap()[2].as_str(), Some("\"\\\n\t/é\u{8}\u{c}\r"));
        assert_eq!(v["a"].as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v["missing"]["deeper"], Value::Null);
    }

    #[test]
    fn rejects_malformed_input() {
        let line = sample().to_line();
        for cut in 0..line.len() {
            if line.is_char_boundary(cut) {
                assert!(parse(&line[..cut]).is_err(), "truncated at {cut} must fail");
            }
        }
        for bad in [
            "{} {}",
            "[1,]",
            r#"{"a":1,}"#,
            "NaN",
            "[NaN]",
            "1e999",
            "-",
            "01",
            "1.",
            "1e",
            "+1",
            r#"{"a":1,"a":2}"#,
            "\"tab\there\"",
            r#""\x""#,
            r#""\ud800""#,
            "{1:2}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must fail");
        }
        assert!(parse(&"[".repeat(MAX_DEPTH + 2)).unwrap_err().contains("nesting"));
        assert!(parse(&format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH))).is_ok());
    }

    #[test]
    fn parse_as_checks_key_paths_and_kinds() {
        let sample = obj([
            ("n", 0u64.into()),
            ("x", fixed(0.0, 1)),
            ("rows", Value::Arr(vec![obj([("k", 0u64.into())])])),
        ])
        .to_line();
        let ok = r#"{"rows":[{"k":3},{"k":4}],"x":2.5,"n":9}"#;
        assert_eq!(parse_as(ok, &sample).unwrap()["n"].as_u64(), Some(9));
        for (bad, why) in [
            (r#"{"n":1,"x":2.5}"#, "missing key $.rows"),
            (r#"{"n":1,"x":2.5,"rows":[],"y":0}"#, "unknown key $.y"),
            (r#"{"n":1.5,"x":2.5,"rows":[]}"#, "$.n: expected integer, found number"),
            (r#"{"n":"1","x":2.5,"rows":[]}"#, "$.n: expected integer, found string"),
            (r#"{"n":1,"x":2,"rows":[]}"#, "$.x: expected number, found integer"),
            (r#"{"n":1,"x":2.5,"rows":[{"k":1},{}]}"#, "missing key $.rows[1].k"),
            (r#"{"n":1,"x":2.5,"rows":[{"k":1,"j":1}]}"#, "unknown key $.rows[0].j"),
            (r#"[]"#, "$: expected object, found array"),
        ] {
            assert_eq!(parse_as(bad, &sample).unwrap_err(), why);
        }
        let empty = obj([("rows", Value::Arr(vec![]))]).to_line();
        assert!(parse_as(r#"{"rows":[]}"#, &empty).is_ok());
        assert!(parse_as(r#"{"rows":[1]}"#, &empty).unwrap_err().contains("unexpected element"));
    }

    #[test]
    fn key_paths_name_every_key() {
        assert_eq!(
            sample().key_paths(),
            ["name", "n", "x", "ok", "none", "rows", "rows.k", "rows.k"].map(String::from)
        );
    }
}
