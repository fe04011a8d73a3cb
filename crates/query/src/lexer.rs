//! Hand-rolled lexer for the query language.
//!
//! [`SYMBOLS`] and [`KEYWORDS`] are the language's one list of what it
//! spells: [`tokenize`] reads the source against them and
//! [`TokenKind::describe`] prints from them.

use crate::error::ParseError;
use crate::expr::BinaryOp;

/// A lexical token with its byte offset in the source.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    pub kind: TokenKind,
    pub offset: usize,
}

/// Token kinds. Keywords are case-insensitive in the source but normalized
/// here; identifiers keep their case.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TokenKind {
    // keywords
    Pattern,
    Seq,
    Where,
    Within,
    Return,
    Not,
    True,
    False,
    // literals / names
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    // punctuation
    LParen,
    RParen,
    Comma,
    Dot,
    Bang,
    Pipe,
    /// A binary operator: a symbol, or the keyword `AND` / `OR`.
    Op(BinaryOp),
    Eof,
}

/// Every symbol, longest first, so `<=` lexes as one token and not as
/// `<` then `=`.
static SYMBOLS: [(&str, TokenKind); 16] = [
    ("==", TokenKind::Op(BinaryOp::Eq)),
    ("!=", TokenKind::Op(BinaryOp::Ne)),
    ("<=", TokenKind::Op(BinaryOp::Le)),
    (">=", TokenKind::Op(BinaryOp::Ge)),
    ("<", TokenKind::Op(BinaryOp::Lt)),
    (">", TokenKind::Op(BinaryOp::Gt)),
    ("+", TokenKind::Op(BinaryOp::Add)),
    ("-", TokenKind::Op(BinaryOp::Sub)),
    ("*", TokenKind::Op(BinaryOp::Mul)),
    ("/", TokenKind::Op(BinaryOp::Div)),
    ("!", TokenKind::Bang),
    ("(", TokenKind::LParen),
    (")", TokenKind::RParen),
    (",", TokenKind::Comma),
    (".", TokenKind::Dot),
    ("|", TokenKind::Pipe),
];

/// Every keyword, as error messages print it; the source may spell it in
/// any case.
static KEYWORDS: [(&str, TokenKind); 10] = [
    ("PATTERN", TokenKind::Pattern),
    ("SEQ", TokenKind::Seq),
    ("WHERE", TokenKind::Where),
    ("WITHIN", TokenKind::Within),
    ("RETURN", TokenKind::Return),
    ("AND", TokenKind::Op(BinaryOp::And)),
    ("OR", TokenKind::Op(BinaryOp::Or)),
    ("NOT", TokenKind::Not),
    ("true", TokenKind::True),
    ("false", TokenKind::False),
];

/// The text [`SYMBOLS`] or [`KEYWORDS`] gives `kind`; empty for a kind
/// that carries its own text (a name, a literal, the end).
pub(crate) fn spelling(kind: &TokenKind) -> &'static str {
    SYMBOLS
        .iter()
        .chain(&KEYWORDS)
        .find(|(_, k)| k == kind)
        .map_or("", |&(text, _)| text)
}

impl TokenKind {
    /// Human-readable description used in error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::Int(i) => format!("integer `{i}`"),
            TokenKind::Float(x) => format!("float `{x}`"),
            TokenKind::Str(s) => format!("string {s:?}"),
            TokenKind::Eof => "end of input".to_owned(),
            other => format!("`{}`", spelling(other)),
        }
    }
}

/// Tokenizes `src` completely (including a trailing `Eof` token).
pub(crate) fn tokenize(src: &str) -> Result<Vec<Token>, ParseError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let rest = &bytes[i..];
        // line comments: `-- ...` and `// ...`
        if rest.starts_with(b"--") || rest.starts_with(b"//") {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        let start = i;
        if let Some((text, kind)) = SYMBOLS.iter().find(|(t, _)| rest.starts_with(t.as_bytes())) {
            out.push(Token {
                kind: kind.clone(),
                offset: start,
            });
            i += text.len();
            continue;
        }
        let kind = match c {
            '=' => {
                return Err(ParseError::new(
                    start,
                    "expected `==` (single `=` is not an operator)",
                ));
            }
            '\'' | '"' => {
                let quote = bytes[i];
                i += 1;
                let s0 = i;
                while i < bytes.len() && bytes[i] != quote {
                    i += 1;
                }
                if i >= bytes.len() {
                    return Err(ParseError::new(start, "unterminated string literal"));
                }
                let s = src[s0..i].to_owned();
                i += 1;
                TokenKind::Str(s)
            }
            c if c.is_ascii_digit() => {
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i + 1 < bytes.len()
                    && bytes[i] == b'.'
                    && (bytes[i + 1] as char).is_ascii_digit()
                {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &src[start..i];
                if is_float {
                    TokenKind::Float(text.parse().map_err(|_| {
                        ParseError::new(start, format!("invalid float literal `{text}`"))
                    })?)
                } else {
                    TokenKind::Int(text.parse().map_err(|_| {
                        ParseError::new(start, format!("integer literal `{text}` out of range"))
                    })?)
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &src[start..i];
                KEYWORDS
                    .iter()
                    .find(|(text, _)| text.eq_ignore_ascii_case(word))
                    .map_or_else(|| TokenKind::Ident(word.to_owned()), |(_, k)| k.clone())
            }
            other => {
                return Err(ParseError::new(
                    start,
                    format!("unexpected character `{other}`"),
                ));
            }
        };
        out.push(Token {
            kind,
            offset: start,
        });
    }
    out.push(Token {
        kind: TokenKind::Eof,
        offset: src.len(),
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(
            kinds("pattern SeQ wHeRe")[..3],
            [TokenKind::Pattern, TokenKind::Seq, TokenKind::Where]
        );
        // the table holds every keyword, and each lexes alone in any case
        // and describes itself as the table spells it
        let spelled: Vec<&str> = KEYWORDS.iter().map(|&(text, _)| text).collect();
        assert_eq!(
            spelled.join(" "),
            "PATTERN SEQ WHERE WITHIN RETURN AND OR NOT true false"
        );
        for (text, kind) in &KEYWORDS {
            let mixed: String = text
                .chars()
                .enumerate()
                .map(|(i, c)| match i % 2 {
                    0 => c.to_ascii_uppercase(),
                    _ => c.to_ascii_lowercase(),
                })
                .collect();
            for word in [text.to_ascii_lowercase(), text.to_ascii_uppercase(), mixed] {
                assert_eq!(kinds(&word), [kind.clone(), TokenKind::Eof], "{word}");
            }
            assert_eq!(kind.describe(), format!("`{text}`"));
        }
    }

    #[test]
    fn identifiers_keep_case() {
        assert_eq!(kinds("Shipped")[0], TokenKind::Ident("Shipped".into()));
    }

    #[test]
    fn numbers() {
        assert_eq!(kinds("42")[0], TokenKind::Int(42));
        assert_eq!(kinds("4.5")[0], TokenKind::Float(4.5));
        // `4.` followed by ident is Int Dot Ident (field access), not a float
        assert_eq!(
            kinds("a.x")[..3],
            [
                TokenKind::Ident("a".into()),
                TokenKind::Dot,
                TokenKind::Ident("x".into())
            ]
        );
    }

    #[test]
    fn operators() {
        use BinaryOp::{Add, Div, Eq, Ge, Gt, Le, Lt, Mul, Ne, Sub};
        assert_eq!(
            kinds("== != <= >= < > + - * / ! ( ) , . |")
                .into_iter()
                .take(16)
                .collect::<Vec<_>>(),
            vec![
                TokenKind::Op(Eq),
                TokenKind::Op(Ne),
                TokenKind::Op(Le),
                TokenKind::Op(Ge),
                TokenKind::Op(Lt),
                TokenKind::Op(Gt),
                TokenKind::Op(Add),
                TokenKind::Op(Sub),
                TokenKind::Op(Mul),
                TokenKind::Op(Div),
                TokenKind::Bang,
                TokenKind::LParen,
                TokenKind::RParen,
                TokenKind::Comma,
                TokenKind::Dot,
                TokenKind::Pipe,
            ]
        );
        // the table holds every symbol above, and each lexes alone as one
        // token (`<=` is not `<` then `=`) and describes itself as the
        // table spells it
        let spelled: Vec<&str> = SYMBOLS.iter().map(|&(text, _)| text).collect();
        assert_eq!(spelled.join(" "), "== != <= >= < > + - * / ! ( ) , . |");
        for (text, kind) in &SYMBOLS {
            assert_eq!(kinds(text), [kind.clone(), TokenKind::Eof], "{text}");
            assert_eq!(kind.describe(), format!("`{text}`"));
        }
    }

    #[test]
    fn strings_single_and_double_quoted() {
        assert_eq!(kinds("'abc'")[0], TokenKind::Str("abc".into()));
        assert_eq!(kinds("\"abc\"")[0], TokenKind::Str("abc".into()));
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(tokenize("'abc").is_err());
    }

    #[test]
    fn single_equals_is_error() {
        let err = tokenize("a = b").unwrap_err();
        assert!(err.to_string().contains("=="));
    }

    #[test]
    fn comments_are_skipped() {
        let ks = kinds("a -- comment\n b // another\n c");
        assert_eq!(
            ks[..3],
            [
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Ident("c".into())
            ]
        );
    }

    #[test]
    fn unexpected_character_is_error() {
        assert!(tokenize("§").is_err());
    }

    #[test]
    fn eof_token_is_appended() {
        assert_eq!(kinds("").last(), Some(&TokenKind::Eof));
    }

    #[test]
    fn offsets_point_into_source() {
        let toks = tokenize("ab cd").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 3);
    }
}
