//! The Tiny-C lexer.

use std::fmt;

/// A token kind, carrying its payload for literals and identifiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Tok {
    /// Integer literal (decimal or `0x` hex), stored as the raw 32-bit
    /// pattern.
    Int(u32),
    /// Identifier.
    Ident(String),
    /// Keyword: `int`.
    KwInt,
    /// Keyword: `void`.
    KwVoid,
    /// Keyword: `if`.
    KwIf,
    /// Keyword: `else`.
    KwElse,
    /// Keyword: `while`.
    KwWhile,
    /// Keyword: `for`.
    KwFor,
    /// Keyword: `return`.
    KwReturn,
    /// Keyword: `break`.
    KwBreak,
    /// Keyword: `continue`.
    KwContinue,
    /// Keyword: `secure` — the paper's critical-variable annotation.
    KwSecure,
    /// Keyword: `const`.
    KwConst,
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `{`.
    LBrace,
    /// `}`.
    RBrace,
    /// `[`.
    LBracket,
    /// `]`.
    RBracket,
    /// `;`.
    Semi,
    /// `,`.
    Comma,
    /// `=`.
    Assign,
    /// `+`.
    Plus,
    /// `-`.
    Minus,
    /// `*`.
    Star,
    /// `/`.
    Slash,
    /// `%`.
    Percent,
    /// `^`.
    Caret,
    /// `&`.
    Amp,
    /// `|`.
    Pipe,
    /// `~`.
    Tilde,
    /// `!`.
    Bang,
    /// `<<`.
    Shl,
    /// `>>`.
    Shr,
    /// `==`.
    Eq,
    /// `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `>`.
    Gt,
    /// `<=`.
    Le,
    /// `>=`.
    Ge,
    /// `&&`.
    AndAnd,
    /// `||`.
    OrOr,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Int(v) => write!(f, "{v}"),
            Tok::Ident(s) => write!(f, "{s}"),
            other => {
                let s = match other {
                    Tok::KwInt => "int",
                    Tok::KwVoid => "void",
                    Tok::KwIf => "if",
                    Tok::KwElse => "else",
                    Tok::KwWhile => "while",
                    Tok::KwFor => "for",
                    Tok::KwReturn => "return",
                    Tok::KwBreak => "break",
                    Tok::KwContinue => "continue",
                    Tok::KwSecure => "secure",
                    Tok::KwConst => "const",
                    Tok::LParen => "(",
                    Tok::RParen => ")",
                    Tok::LBrace => "{",
                    Tok::RBrace => "}",
                    Tok::LBracket => "[",
                    Tok::RBracket => "]",
                    Tok::Semi => ";",
                    Tok::Comma => ",",
                    Tok::Assign => "=",
                    Tok::Plus => "+",
                    Tok::Minus => "-",
                    Tok::Star => "*",
                    Tok::Slash => "/",
                    Tok::Percent => "%",
                    Tok::Caret => "^",
                    Tok::Amp => "&",
                    Tok::Pipe => "|",
                    Tok::Tilde => "~",
                    Tok::Bang => "!",
                    Tok::Shl => "<<",
                    Tok::Shr => ">>",
                    Tok::Eq => "==",
                    Tok::Ne => "!=",
                    Tok::Lt => "<",
                    Tok::Gt => ">",
                    Tok::Le => "<=",
                    Tok::Ge => ">=",
                    Tok::AndAnd => "&&",
                    Tok::OrOr => "||",
                    Tok::Eof => "<eof>",
                    Tok::Int(_) | Tok::Ident(_) => unreachable!(),
                };
                f.write_str(s)
            }
        }
    }
}

/// A token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Token {
    /// The token kind and payload.
    pub tok: Tok,
    /// 1-based source line.
    pub line: usize,
}

/// A lexical error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// 1-based source line.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes Tiny-C source. `//` line comments and `/* */` block comments
/// are skipped.
///
/// # Errors
///
/// Returns [`LexError`] on unknown characters, malformed numbers, or an
/// unterminated block comment.
pub(crate) fn lex(source: &str) -> Result<Vec<Token>, LexError> {
    let mut out = Vec::new();
    let bytes = source.as_bytes();
    let mut i = 0;
    let mut line = 1;
    let n = bytes.len();
    while i < n {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            '/' if i + 1 < n && bytes[i + 1] == b'/' => {
                while i < n && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < n && bytes[i + 1] == b'*' => {
                let start = line;
                i += 2;
                loop {
                    if i + 1 >= n {
                        return Err(LexError {
                            line: start,
                            message: "unterminated block comment".into(),
                        });
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let value = if c == '0' && i + 1 < n && (bytes[i + 1] | 0x20) == b'x' {
                    i += 2;
                    let hex_start = i;
                    while i < n && (bytes[i] as char).is_ascii_hexdigit() {
                        i += 1;
                    }
                    if i == hex_start {
                        return Err(LexError { line, message: "empty hex literal".into() });
                    }
                    u32::from_str_radix(&source[hex_start..i], 16).map_err(|_| LexError {
                        line,
                        message: "hex literal overflows 32 bits".into(),
                    })?
                } else {
                    while i < n && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                    source[start..i]
                        .parse::<i64>()
                        .ok()
                        .filter(|v| *v <= i64::from(u32::MAX))
                        .map(|v| v as u32)
                        .ok_or_else(|| LexError {
                            line,
                            message: "integer literal overflows 32 bits".into(),
                        })?
                };
                out.push(Token { tok: Tok::Int(value), line });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < n && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &source[start..i];
                let tok = match word {
                    "int" => Tok::KwInt,
                    "void" => Tok::KwVoid,
                    "if" => Tok::KwIf,
                    "else" => Tok::KwElse,
                    "while" => Tok::KwWhile,
                    "for" => Tok::KwFor,
                    "return" => Tok::KwReturn,
                    "break" => Tok::KwBreak,
                    "continue" => Tok::KwContinue,
                    "secure" => Tok::KwSecure,
                    "const" => Tok::KwConst,
                    _ => Tok::Ident(word.to_owned()),
                };
                out.push(Token { tok, line });
            }
            _ => {
                let two = if i + 1 < n { &source[i..i + 2] } else { "" };
                let (tok, width) = match two {
                    "<<" => (Tok::Shl, 2),
                    ">>" => (Tok::Shr, 2),
                    "==" => (Tok::Eq, 2),
                    "!=" => (Tok::Ne, 2),
                    "<=" => (Tok::Le, 2),
                    ">=" => (Tok::Ge, 2),
                    "&&" => (Tok::AndAnd, 2),
                    "||" => (Tok::OrOr, 2),
                    _ => {
                        let t = match c {
                            '(' => Tok::LParen,
                            ')' => Tok::RParen,
                            '{' => Tok::LBrace,
                            '}' => Tok::RBrace,
                            '[' => Tok::LBracket,
                            ']' => Tok::RBracket,
                            ';' => Tok::Semi,
                            ',' => Tok::Comma,
                            '=' => Tok::Assign,
                            '+' => Tok::Plus,
                            '-' => Tok::Minus,
                            '*' => Tok::Star,
                            '/' => Tok::Slash,
                            '%' => Tok::Percent,
                            '^' => Tok::Caret,
                            '&' => Tok::Amp,
                            '|' => Tok::Pipe,
                            '~' => Tok::Tilde,
                            '!' => Tok::Bang,
                            '<' => Tok::Lt,
                            '>' => Tok::Gt,
                            other => {
                                return Err(LexError {
                                    line,
                                    message: format!("unexpected character `{other}`"),
                                })
                            }
                        };
                        (t, 1)
                    }
                };
                out.push(Token { tok, line });
                i += width;
            }
        }
    }
    out.push(Token { tok: Tok::Eof, line });
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn keywords_and_identifiers() {
        assert_eq!(
            kinds("secure int key_0"),
            vec![Tok::KwSecure, Tok::KwInt, Tok::Ident("key_0".into()), Tok::Eof]
        );
    }

    #[test]
    fn numbers_decimal_and_hex() {
        assert_eq!(
            kinds("0 42 0xFF 0xdeadBEEF"),
            vec![Tok::Int(0), Tok::Int(42), Tok::Int(255), Tok::Int(0xDEAD_BEEF), Tok::Eof]
        );
    }

    #[test]
    fn two_char_operators_win() {
        assert_eq!(kinds("<<=>>"), vec![Tok::Shl, Tok::Assign, Tok::Shr, Tok::Eof]);
        assert_eq!(
            kinds("a<=b"),
            vec![Tok::Ident("a".into()), Tok::Le, Tok::Ident("b".into()), Tok::Eof]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("1 // nope\n2 /* and\nnot this */ 3"),
            vec![Tok::Int(1), Tok::Int(2), Tok::Int(3), Tok::Eof]
        );
    }

    #[test]
    fn line_numbers_tracked() {
        let toks = lex("a\nb\n\nc").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 4);
    }

    #[test]
    fn unterminated_comment_is_an_error() {
        let e = lex("/* oops").unwrap_err();
        assert!(e.to_string().contains("unterminated"));
    }

    #[test]
    fn unknown_character_is_an_error() {
        let e = lex("a @ b").unwrap_err();
        assert!(e.message.contains('@'));
    }

    #[test]
    fn overflowing_literal_is_an_error() {
        assert!(lex("4294967296").is_err());
        assert!(lex("4294967295").is_ok());
        assert!(lex("0x1FFFFFFFF").is_err());
    }
}
