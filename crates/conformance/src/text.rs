//! The one reader for the workspace's keyed text files: spec files
//! ([`crate::spec`]) and simcheck's `.scn` scenarios. [`parse`] skips blank
//! and `#` lines, opens a [`Table`] at each `[name]` or `[[name]]` header
//! (fields before the first one are [`Doc::top`]), and reads every other
//! line as `key = value`, split at the first `=` and trimmed. A value is a
//! `"…"` string (no embedded `"`, no escapes), an inline `'''…'''` string,
//! a lone `'''` opening a multi-line string closed by the next line reading
//! `'''` (inner lines verbatim), or else [`Value::Bare`] text.
//!
//! Each format walks the tables and decides which headers, keys and value
//! kinds it accepts, with helpers for the common rules ([`Table::only`],
//! [`Table::once`], [`Field::parse`]). Every failure is a [`TextError`] at
//! its line; the whole text is read before a format sees a field, so a
//! syntax error is reported ahead of a format error on an earlier line.

use std::borrow::Cow;
use std::fmt;
use std::str::FromStr;

/// A read or validation failure, pointing at the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextError {
    /// 1-based line number (0 for whole-file errors, e.g. a missing key).
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl TextError {
    /// An error at `line` (0: about the file as a whole).
    pub fn at(line: usize, msg: impl Into<String>) -> TextError {
        let msg = msg.into();
        TextError { line, msg }
    }
}

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            0 => f.write_str(&self.msg),
            n => write!(f, "line {n}: {}", self.msg),
        }
    }
}

impl std::error::Error for TextError {}

/// A field's value, as written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value<'a> {
    /// Unquoted text: everything after the `=`, trimmed.
    Bare(&'a str),
    /// A `"…"` or `'''…'''` string, or a multi-line `'''` block.
    Str(Cow<'a, str>),
}

/// One `key = value` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field<'a> {
    /// 1-based line of the key (the opener line of a `'''` block).
    pub line: usize,
    /// The key, trimmed.
    pub key: &'a str,
    /// The value.
    pub value: Value<'a>,
}

impl<'a> Field<'a> {
    /// An error at this field's line.
    pub fn err(&self, msg: impl Into<String>) -> TextError {
        TextError::at(self.line, msg)
    }

    /// The value as bare text; a quoted string is an error.
    pub fn bare(&self) -> Result<&'a str, TextError> {
        match self.value {
            Value::Bare(v) => Ok(v),
            Value::Str(_) => {
                Err(self.err(format!("`{}` takes a bare value, not a string", self.key)))
            }
        }
    }

    /// The value as a quoted string; bare text is an error.
    pub fn string(&self) -> Result<&str, TextError> {
        match &self.value {
            Value::Str(s) => Ok(s),
            Value::Bare(v) => Err(self.err(format!("expected \"string\" or ''' block, got `{v}`"))),
        }
    }

    /// Parse the bare value as `T`; `what` names `T` in the error.
    pub fn parse<T: FromStr>(&self, what: &str) -> Result<T, TextError> {
        self.parse_word(self.bare()?, what)
    }

    /// Parse `word`, one piece of this field's value, as `T`.
    pub fn parse_word<T: FromStr>(&self, word: &str, what: &str) -> Result<T, TextError> {
        word.parse()
            .map_err(|_| self.err(format!("bad {what} `{word}` for {}", self.key)))
    }
}

/// The fields under one header (or before the first one).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table<'a> {
    /// 1-based line of the header (0 for [`Doc::top`]).
    pub line: usize,
    /// The header's name (empty for [`Doc::top`]).
    pub name: &'a str,
    /// Whether the header was `[[name]]`.
    pub array: bool,
    /// The fields, in file order.
    pub fields: Vec<Field<'a>>,
}

impl<'a> Table<'a> {
    /// An error at this table's header line.
    pub fn err(&self, msg: impl Into<String>) -> TextError {
        TextError::at(self.line, msg)
    }

    /// The header as written, or `the top level`.
    pub fn header(&self) -> String {
        match (self.line, self.array) {
            (0, _) => "the top level".into(),
            (_, true) => format!("[[{}]]", self.name),
            (_, false) => format!("[{}]", self.name),
        }
    }

    /// Only these keys: the first field whose key is not in `keys` is an
    /// error at its line.
    pub fn only(&self, keys: &[&str]) -> Result<(), TextError> {
        match self.fields.iter().find(|f| !keys.contains(&f.key)) {
            Some(f) => Err(f.err(format!("unknown key `{}` in {}", f.key, self.header()))),
            None => Ok(()),
        }
    }

    /// At most once: the field named `key`, if any; a second one is an
    /// error at its line.
    pub fn once(&self, key: &str) -> Result<Option<&Field<'a>>, TextError> {
        let mut hits = self.fields.iter().filter(|f| f.key == key);
        let first = hits.next();
        match hits.next() {
            Some(dup) => Err(dup.err(format!("duplicate `{key}` in {}", self.header()))),
            None => Ok(first),
        }
    }
}

/// A whole file: the top-level fields, then every table in file order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Doc<'a> {
    /// Fields before the first header.
    pub top: Table<'a>,
    /// The `[name]` / `[[name]]` tables.
    pub tables: Vec<Table<'a>>,
}

/// Split `text` into tables of line-numbered fields (see the module docs
/// for the syntax).
pub fn parse(text: &str) -> Result<Doc<'_>, TextError> {
    let mut top = Table::default();
    let mut tables: Vec<Table<'_>> = Vec::new();
    let mut lines = text.lines().zip(1..);
    while let Some((raw, line)) = lines.next() {
        let s = raw.trim();
        if s.is_empty() || s.starts_with('#') {
            continue;
        }
        let err = |msg: String| TextError { line, msg };
        if s.starts_with('[') {
            let (name, array) =
                header(s).ok_or_else(|| err(format!("malformed table header `{s}`")))?;
            tables.push(Table {
                line,
                name,
                array,
                fields: Vec::new(),
            });
            continue;
        }
        let (key, raw_value) = s
            .split_once('=')
            .ok_or_else(|| err(format!("expected `key = value`, got `{s}`")))?;
        let (key, raw_value) = (key.trim(), raw_value.trim());
        let value = if raw_value == "'''" {
            let mut body = Vec::new();
            loop {
                match lines.next() {
                    Some((l, _)) if l.trim() == "'''" => break,
                    Some((l, _)) => body.push(l),
                    None => return Err(err(format!("unterminated ''' block for `{key}`"))),
                }
            }
            Value::Str(Cow::Owned(body.join("\n")))
        } else {
            inline_value(raw_value).map_err(err)?
        };
        let table = tables.last_mut().unwrap_or(&mut top);
        table.fields.push(Field { line, key, value });
    }
    Ok(Doc { top, tables })
}

/// `[[name]]` → `(name, true)`, `[name]` → `(name, false)`.
fn header(line: &str) -> Option<(&str, bool)> {
    if let Some(name) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
        return Some((name, true));
    }
    let name = line.strip_prefix('[')?.strip_suffix(']')?;
    Some((name, false))
}

/// A one-line value: `"…"`, `'''…'''`, or bare text.
fn inline_value(raw: &str) -> Result<Value<'_>, String> {
    let quoted = |q: &str| {
        let inner = raw.strip_prefix(q)?.strip_suffix(q);
        inner.filter(|_| raw.len() >= 2 * q.len())
    };
    match (quoted("\""), quoted("'''")) {
        (Some(s), _) if s.contains('"') => Err("embedded quotes are not supported".into()),
        (Some(s), _) | (None, Some(s)) => Ok(Value::Str(Cow::Borrowed(s))),
        (None, None) => Ok(Value::Bare(raw)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn str_value(s: &str) -> Value<'_> {
        Value::Str(Cow::Borrowed(s))
    }

    #[test]
    fn splits_tables_and_numbers_fields() {
        let doc = parse(
            "# c\ntop = 1\n\n[sim]\nseed = 7\nname = \"x y\"\n[[spec]]\nquote = '''\n# kept\n  [kept]\n'''\nnote = '''inline'''\n",
        )
        .unwrap();
        assert_eq!(doc.top.header(), "the top level");
        assert_eq!(doc.top.fields[0].line, 2);
        assert_eq!(doc.top.fields[0].value, Value::Bare("1"));
        assert_eq!(doc.tables.len(), 2);
        let sim = &doc.tables[0];
        assert_eq!((sim.line, sim.name, sim.array), (4, "sim", false));
        assert_eq!(sim.fields[1].value, str_value("x y"));
        let spec = &doc.tables[1];
        assert_eq!((spec.line, spec.header().as_str()), (7, "[[spec]]"));
        assert_eq!(spec.fields[0].line, 8);
        assert_eq!(spec.fields[0].string().unwrap(), "# kept\n  [kept]");
        assert_eq!(
            (spec.fields[1].line, spec.fields[1].string().unwrap()),
            (12, "inline")
        );
    }

    #[test]
    fn syntax_errors_carry_their_line() {
        for (text, line, what) in [
            ("[sim]\nno equals sign\n", 2, "key = value"),
            ("a = 1\n[sim\n", 2, "malformed table header"),
            ("a = \"x\"y\"\n", 1, "embedded quotes"),
            ("a = 1\nq = '''\nopen\n", 2, "unterminated"),
        ] {
            let e = parse(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}: {e}");
            assert!(e.msg.contains(what), "{text:?}: {e}");
        }
    }

    #[test]
    fn near_quotes_stay_bare() {
        for raw in ["\"", "''''", "'''''", "x\"y\""] {
            let text = format!("a = {raw}\n");
            let doc = parse(&text).unwrap();
            assert_eq!(doc.top.fields[0].value, Value::Bare(raw), "{raw:?}");
        }
        let doc = parse("a = ''''''\n").unwrap();
        assert_eq!(doc.top.fields[0].value, str_value(""));
    }

    #[test]
    fn helpers_check_keys_counts_and_kinds() {
        let doc = parse("[t]\na = 1\nb = \"s\"\na = 2\nc = x\n").unwrap();
        let t = &doc.tables[0];
        let e = t.only(&["a", "b"]).unwrap_err();
        assert_eq!((e.line, e.msg.as_str()), (5, "unknown key `c` in [t]"));
        let e = t.once("a").unwrap_err();
        assert_eq!((e.line, e.msg.as_str()), (4, "duplicate `a` in [t]"));
        assert_eq!(t.once("b").unwrap().unwrap().line, 3);
        assert!(t.once("zz").unwrap().is_none());
        assert_eq!(t.fields[0].parse::<u64>("integer").unwrap(), 1);
        let e = t.fields[3].parse::<u64>("integer").unwrap_err();
        assert_eq!((e.line, e.msg.as_str()), (5, "bad integer `x` for c"));
        assert!(t.fields[1].bare().unwrap_err().msg.contains("bare value"));
        assert!(t.fields[0]
            .string()
            .unwrap_err()
            .msg
            .contains("expected \"string\""));
        assert_eq!(e.to_string(), "line 5: bad integer `x` for c");
        assert_eq!(TextError::at(0, "m").to_string(), "m");
    }
}
