//! Hand-written lexer for mini-C.

use crate::ast::Span;
use crate::error::FrontendError;

/// Lexical tokens.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    // Literals and identifiers.
    Int(i64),
    Char(u8),
    Str(String),
    Ident(String),

    // Keywords.
    KwInt,
    KwChar,
    KwVoid,
    KwStruct,
    KwIf,
    KwElse,
    KwWhile,
    KwFor,
    KwReturn,
    KwBreak,
    KwContinue,
    KwPrivate,
    KwExtern,
    KwSizeof,

    // Punctuation and operators.
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Dot,
    Arrow,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Bang,
    Shl,
    Shr,
    AmpAmp,
    PipePipe,
    Assign,
    PlusAssign,
    MinusAssign,
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,

    Eof,
}

impl Tok {
    /// Human-readable token name for diagnostics.
    pub fn describe(&self) -> String {
        match self {
            Tok::Int(v) => format!("integer literal `{v}`"),
            Tok::Char(c) => format!("character literal `{}`", *c as char),
            Tok::Str(_) => "string literal".to_string(),
            Tok::Ident(s) => format!("identifier `{s}`"),
            Tok::Eof => "end of input".to_string(),
            other => format!("{other:?}"),
        }
    }
}

/// A token together with its source location.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedTok {
    pub tok: Tok,
    pub span: Span,
}

/// Tokenise an entire mini-C source string.
pub fn lex(src: &str) -> Result<Vec<SpannedTok>, FrontendError> {
    Lexer::new(src).run()
}

/// Walks the source text in place; identifiers and numeric literals are
/// slices of it.
struct Lexer<'a> {
    src: &'a str,
    /// Byte offset of the next character.
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn span(&self) -> Span {
        Span::new(self.line, self.col)
    }

    fn peek(&self) -> Option<char> {
        match *self.src.as_bytes().get(self.pos)? {
            b if b.is_ascii() => Some(b as char),
            _ => self.src[self.pos..].chars().next(),
        }
    }

    fn peek2(&self) -> Option<char> {
        self.src[self.pos..].chars().nth(1)
    }

    /// The source text from byte offset `start` up to the next character.
    fn since(&self, start: usize) -> &'a str {
        &self.src[start..self.pos]
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn error(&self, msg: impl Into<String>) -> FrontendError {
        FrontendError::lex(msg, self.span())
    }

    fn run(mut self) -> Result<Vec<SpannedTok>, FrontendError> {
        let mut out = Vec::new();
        loop {
            self.skip_trivia()?;
            let span = self.span();
            let Some(c) = self.peek() else {
                out.push(SpannedTok {
                    tok: Tok::Eof,
                    span,
                });
                return Ok(out);
            };
            let tok = match c {
                '0'..='9' => self.lex_number()?,
                '\'' => self.lex_char()?,
                '"' => self.lex_string()?,
                c if c.is_ascii_alphabetic() || c == '_' => self.lex_ident(),
                _ => self.lex_symbol()?,
            };
            out.push(SpannedTok { tok, span });
        }
    }

    fn skip_trivia(&mut self) -> Result<(), FrontendError> {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('/') if self.peek2() == Some('/') => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some('/') if self.peek2() == Some('*') => {
                    self.bump();
                    self.bump();
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some('*'), Some('/')) => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            (None, _) => return Err(self.error("unterminated block comment")),
                            _ => {
                                self.bump();
                            }
                        }
                    }
                }
                Some('#') => {
                    // Preprocessor-style lines (`#define SIZE 512`) are not
                    // supported; skip them so pasted C snippets still lex, the
                    // parser never sees them.
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn lex_number(&mut self) -> Result<Tok, FrontendError> {
        let hex = self.peek() == Some('0') && matches!(self.peek2(), Some('x') | Some('X'));
        if hex {
            self.bump();
            self.bump();
            let start = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_hexdigit()) {
                self.bump();
            }
            let text = self.since(start);
            let v = i64::from_str_radix(text, 16)
                .map_err(|_| self.error(format!("invalid hex literal `0x{text}`")))?;
            return Ok(Tok::Int(v));
        }
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
        }
        let text = self.since(start);
        let v: i64 = text
            .parse()
            .map_err(|_| self.error(format!("invalid integer literal `{text}`")))?;
        Ok(Tok::Int(v))
    }

    fn lex_char(&mut self) -> Result<Tok, FrontendError> {
        self.bump(); // opening quote
        let c = self
            .bump()
            .ok_or_else(|| self.error("unterminated character literal"))?;
        let value = if c == '\\' {
            let esc = self
                .bump()
                .ok_or_else(|| self.error("unterminated escape"))?;
            escape(esc).ok_or_else(|| self.error(format!("unknown escape `\\{esc}`")))?
        } else {
            c as u8
        };
        if self.bump() != Some('\'') {
            return Err(self.error("expected closing `'`"));
        }
        Ok(Tok::Char(value))
    }

    fn lex_string(&mut self) -> Result<Tok, FrontendError> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(self.error("unterminated string literal")),
                Some('"') => break,
                Some('\\') => {
                    let esc = self
                        .bump()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    let b = escape(esc)
                        .ok_or_else(|| self.error(format!("unknown escape `\\{esc}`")))?;
                    s.push(b as char);
                }
                Some(c) => s.push(c),
            }
        }
        Ok(Tok::Str(s))
    }

    fn lex_ident(&mut self) -> Tok {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            self.bump();
        }
        let s = self.since(start);
        match s {
            "int" | "long" => Tok::KwInt,
            "char" => Tok::KwChar,
            "void" => Tok::KwVoid,
            "struct" => Tok::KwStruct,
            "if" => Tok::KwIf,
            "else" => Tok::KwElse,
            "while" => Tok::KwWhile,
            "for" => Tok::KwFor,
            "return" => Tok::KwReturn,
            "break" => Tok::KwBreak,
            "continue" => Tok::KwContinue,
            "private" => Tok::KwPrivate,
            "extern" => Tok::KwExtern,
            "sizeof" => Tok::KwSizeof,
            _ => Tok::Ident(s.to_string()),
        }
    }

    fn lex_symbol(&mut self) -> Result<Tok, FrontendError> {
        let c = self.bump().expect("peeked before lex_symbol");
        let next = self.peek();
        let tok = match (c, next) {
            ('-', Some('>')) => {
                self.bump();
                Tok::Arrow
            }
            ('+', Some('=')) => {
                self.bump();
                Tok::PlusAssign
            }
            ('-', Some('=')) => {
                self.bump();
                Tok::MinusAssign
            }
            ('<', Some('<')) => {
                self.bump();
                Tok::Shl
            }
            ('>', Some('>')) => {
                self.bump();
                Tok::Shr
            }
            ('&', Some('&')) => {
                self.bump();
                Tok::AmpAmp
            }
            ('|', Some('|')) => {
                self.bump();
                Tok::PipePipe
            }
            ('=', Some('=')) => {
                self.bump();
                Tok::EqEq
            }
            ('!', Some('=')) => {
                self.bump();
                Tok::NotEq
            }
            ('<', Some('=')) => {
                self.bump();
                Tok::Le
            }
            ('>', Some('=')) => {
                self.bump();
                Tok::Ge
            }
            ('(', _) => Tok::LParen,
            (')', _) => Tok::RParen,
            ('{', _) => Tok::LBrace,
            ('}', _) => Tok::RBrace,
            ('[', _) => Tok::LBracket,
            (']', _) => Tok::RBracket,
            (';', _) => Tok::Semi,
            (',', _) => Tok::Comma,
            ('.', _) => Tok::Dot,
            ('+', _) => Tok::Plus,
            ('-', _) => Tok::Minus,
            ('*', _) => Tok::Star,
            ('/', _) => Tok::Slash,
            ('%', _) => Tok::Percent,
            ('&', _) => Tok::Amp,
            ('|', _) => Tok::Pipe,
            ('^', _) => Tok::Caret,
            ('~', _) => Tok::Tilde,
            ('!', _) => Tok::Bang,
            ('=', _) => Tok::Assign,
            ('<', _) => Tok::Lt,
            ('>', _) => Tok::Gt,
            _ => {
                return Err(FrontendError::lex(
                    format!("unexpected character `{c}`"),
                    self.span(),
                ))
            }
        };
        Ok(tok)
    }
}

fn escape(c: char) -> Option<u8> {
    Some(match c {
        'n' => b'\n',
        't' => b'\t',
        'r' => b'\r',
        '0' => 0,
        '\\' => b'\\',
        '\'' => b'\'',
        '"' => b'"',
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("private int foo"),
            vec![
                Tok::KwPrivate,
                Tok::KwInt,
                Tok::Ident("foo".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("42 0x1f"), vec![Tok::Int(42), Tok::Int(31), Tok::Eof]);
    }

    #[test]
    fn strings_and_chars() {
        assert_eq!(
            toks(r#""hi\n" 'a' '\0'"#),
            vec![
                Tok::Str("hi\n".into()),
                Tok::Char(b'a'),
                Tok::Char(0),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("a->b == c && d <= e >> 2"),
            vec![
                Tok::Ident("a".into()),
                Tok::Arrow,
                Tok::Ident("b".into()),
                Tok::EqEq,
                Tok::Ident("c".into()),
                Tok::AmpAmp,
                Tok::Ident("d".into()),
                Tok::Le,
                Tok::Ident("e".into()),
                Tok::Shr,
                Tok::Int(2),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_and_preprocessor_are_skipped() {
        let src = "#define SIZE 512\n// line comment\nint /* inline */ x;";
        assert_eq!(
            toks(src),
            vec![Tok::KwInt, Tok::Ident("x".into()), Tok::Semi, Tok::Eof]
        );
    }

    #[test]
    fn spans_track_lines() {
        let tokens = lex("int\nx;").unwrap();
        assert_eq!(tokens[0].span.line, 1);
        assert_eq!(tokens[1].span.line, 2);
    }

    #[test]
    fn lex_errors() {
        assert!(lex("`").is_err());
        assert!(lex("\"unterminated").is_err());
        assert!(lex("'ab").is_err());
    }
}
