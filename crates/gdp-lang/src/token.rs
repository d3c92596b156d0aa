//! Lexer for the GDP specification language.
//!
//! The concrete syntax transliterates the paper's notation: Prolog-style
//! clauses with the paper's qualifier prefixes — `@`/`@u`/`@s`/`@a` for
//! the spatial operators (§V.C), `&`/`&u`/`&s`/`&a` for the temporal ones
//! (§VI), `%` for the simple fuzzy operator (§VII.B), and `m'fact` for
//! model qualification (§III.D). Comments are `//` and `/* … */` (`%` is
//! taken by the fuzzy operator).

use std::fmt;

use crate::error::{LangError, LangResult};

/// Source position (1-based line and column).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pos {
    /// Line number, starting at 1.
    pub line: u32,
    /// Column number, starting at 1.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// One lexical token.
#[derive(Clone, Debug, PartialEq)]
pub enum Tok {
    /// Lowercase-initial identifier (or keyword — the parser decides).
    Atom(String),
    /// Uppercase- or underscore-initial identifier.
    Var(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Double-quoted string literal.
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `|`
    Pipe,
    /// `.` ending a statement.
    Dot,
    /// `:-`
    Neck,
    /// `?-`
    QueryNeck,
    /// `;`
    Semicolon,
    /// `'` model-qualifier separator.
    Quote,
    /// `#` directive marker.
    Hash,
    /// `@` simple spatial operator.
    At,
    /// `@u` area-uniform (followed by `[`).
    AtU,
    /// `@s` area-sampled.
    AtS,
    /// `@a` area-averaged.
    AtA,
    /// `&` simple temporal operator.
    Amp,
    /// `&u` interval-uniform (followed by `[` or `(`).
    AmpU,
    /// `&s` interval-sampled.
    AmpS,
    /// `&a` interval-averaged.
    AmpA,
    /// `%` simple fuzzy operator.
    Percent,
    /// An operator symbol: one of `< =< > >= =:= =\= \= = == \== + - * / //`.
    Op(String),
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Atom(s) => write!(f, "{s}"),
            Tok::Var(s) => write!(f, "{s}"),
            Tok::Int(i) => write!(f, "{i}"),
            Tok::Float(x) => write!(f, "{x}"),
            Tok::Str(s) => write!(f, "{s:?}"),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::LBracket => write!(f, "["),
            Tok::RBracket => write!(f, "]"),
            Tok::LBrace => write!(f, "{{"),
            Tok::RBrace => write!(f, "}}"),
            Tok::Comma => write!(f, ","),
            Tok::Pipe => write!(f, "|"),
            Tok::Dot => write!(f, "."),
            Tok::Neck => write!(f, ":-"),
            Tok::QueryNeck => write!(f, "?-"),
            Tok::Semicolon => write!(f, ";"),
            Tok::Quote => write!(f, "'"),
            Tok::Hash => write!(f, "#"),
            Tok::At => write!(f, "@"),
            Tok::AtU => write!(f, "@u"),
            Tok::AtS => write!(f, "@s"),
            Tok::AtA => write!(f, "@a"),
            Tok::Amp => write!(f, "&"),
            Tok::AmpU => write!(f, "&u"),
            Tok::AmpS => write!(f, "&s"),
            Tok::AmpA => write!(f, "&a"),
            Tok::Percent => write!(f, "%"),
            Tok::Op(s) => write!(f, "{s}"),
            Tok::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token with its source position.
#[derive(Clone, Debug, PartialEq)]
pub struct Spanned {
    /// The token.
    pub tok: Tok,
    /// Where it starts.
    pub pos: Pos,
}

/// Tokenize a whole source string.
pub fn tokenize(src: &str) -> LangResult<Vec<Spanned>> {
    Lexer::new(src).run()
}

/// The first token of a source string, past whitespace and comments
/// ([`Tok::Eof`] when it holds none): what a block opens with, without
/// tokenizing the rest of it.
pub fn first_token(src: &str) -> LangResult<Tok> {
    let mut lexer = Lexer::new(src);
    lexer.skip_trivia()?;
    match lexer.peek() {
        Some(c) => lexer.next_token(c),
        None => Ok(Tok::Eof),
    }
}

struct Lexer<'a> {
    chars: Vec<char>,
    src: &'a str,
    i: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            chars: src.chars().collect(),
            src,
            i: 0,
            line: 1,
            col: 1,
        }
    }

    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.i).copied()
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.i + 1).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn error(&self, msg: impl Into<String>) -> LangError {
        LangError::Lex {
            pos: self.pos(),
            message: msg.into(),
        }
    }

    fn run(mut self) -> LangResult<Vec<Spanned>> {
        let mut out = Vec::new();
        loop {
            self.skip_trivia()?;
            let pos = self.pos();
            let Some(c) = self.peek() else {
                out.push(Spanned { tok: Tok::Eof, pos });
                return Ok(out);
            };
            let tok = self.next_token(c)?;
            out.push(Spanned { tok, pos });
        }
    }

    fn skip_trivia(&mut self) -> LangResult<()> {
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
                            (Some(_), _) => {
                                self.bump();
                            }
                            (None, _) => {
                                return Err(self.error("unterminated block comment"));
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self, c: char) -> LangResult<Tok> {
        match c {
            '(' => {
                self.bump();
                Ok(Tok::LParen)
            }
            ')' => {
                self.bump();
                Ok(Tok::RParen)
            }
            '[' => {
                self.bump();
                Ok(Tok::LBracket)
            }
            ']' => {
                self.bump();
                Ok(Tok::RBracket)
            }
            '{' => {
                self.bump();
                Ok(Tok::LBrace)
            }
            '}' => {
                self.bump();
                Ok(Tok::RBrace)
            }
            ',' => {
                self.bump();
                Ok(Tok::Comma)
            }
            '|' => {
                self.bump();
                Ok(Tok::Pipe)
            }
            ';' => {
                self.bump();
                Ok(Tok::Semicolon)
            }
            '\'' => {
                self.bump();
                Ok(Tok::Quote)
            }
            '#' => {
                self.bump();
                Ok(Tok::Hash)
            }
            '@' => {
                self.bump();
                match (self.peek(), self.peek2()) {
                    (Some('u'), Some('[')) => {
                        self.bump();
                        Ok(Tok::AtU)
                    }
                    (Some('s'), Some('[')) => {
                        self.bump();
                        Ok(Tok::AtS)
                    }
                    (Some('a'), Some('[')) => {
                        self.bump();
                        Ok(Tok::AtA)
                    }
                    _ => Ok(Tok::At),
                }
            }
            '&' => {
                self.bump();
                match (self.peek(), self.peek2()) {
                    (Some('u'), Some('[' | '(')) => {
                        self.bump();
                        Ok(Tok::AmpU)
                    }
                    (Some('s'), Some('[' | '(')) => {
                        self.bump();
                        Ok(Tok::AmpS)
                    }
                    (Some('a'), Some('[' | '(')) => {
                        self.bump();
                        Ok(Tok::AmpA)
                    }
                    _ => Ok(Tok::Amp),
                }
            }
            '%' => {
                self.bump();
                Ok(Tok::Percent)
            }
            '.' => {
                // End of statement only when not a decimal continuation.
                self.bump();
                Ok(Tok::Dot)
            }
            ':' => {
                self.bump();
                if self.peek() == Some('-') {
                    self.bump();
                    Ok(Tok::Neck)
                } else {
                    Err(self.error("expected `:-`"))
                }
            }
            '?' => {
                self.bump();
                if self.peek() == Some('-') {
                    self.bump();
                    Ok(Tok::QueryNeck)
                } else {
                    Err(self.error("expected `?-`"))
                }
            }
            '"' => self.string(),
            '=' => {
                self.bump();
                match self.peek() {
                    Some('<') => {
                        self.bump();
                        Ok(Tok::Op("=<".into()))
                    }
                    Some(':') => {
                        self.bump();
                        if self.bump() == Some('=') {
                            Ok(Tok::Op("=:=".into()))
                        } else {
                            Err(self.error("expected `=:=`"))
                        }
                    }
                    Some('\\') => {
                        self.bump();
                        if self.bump() == Some('=') {
                            Ok(Tok::Op("=\\=".into()))
                        } else {
                            Err(self.error("expected `=\\=`"))
                        }
                    }
                    Some('=') => {
                        self.bump();
                        Ok(Tok::Op("==".into()))
                    }
                    Some('.') if self.peek2() == Some('.') => {
                        self.bump();
                        self.bump();
                        Ok(Tok::Op("=..".into()))
                    }
                    _ => Ok(Tok::Op("=".into())),
                }
            }
            '\\' => {
                self.bump();
                match self.peek() {
                    Some('=') => {
                        self.bump();
                        if self.peek() == Some('=') {
                            self.bump();
                            Ok(Tok::Op("\\==".into()))
                        } else {
                            Ok(Tok::Op("\\=".into()))
                        }
                    }
                    _ => Err(self.error("expected `\\=` or `\\==`")),
                }
            }
            '<' => {
                self.bump();
                Ok(Tok::Op("<".into()))
            }
            '>' => {
                self.bump();
                if self.peek() == Some('=') {
                    self.bump();
                    Ok(Tok::Op(">=".into()))
                } else {
                    Ok(Tok::Op(">".into()))
                }
            }
            '+' => {
                self.bump();
                Ok(Tok::Op("+".into()))
            }
            '-' => {
                self.bump();
                Ok(Tok::Op("-".into()))
            }
            '*' => {
                self.bump();
                Ok(Tok::Op("*".into()))
            }
            '/' => {
                self.bump();
                if self.peek() == Some('/') {
                    self.bump();
                    Ok(Tok::Op("//".into()))
                } else {
                    Ok(Tok::Op("/".into()))
                }
            }
            c if c.is_ascii_digit() => self.number(false),
            c if c.is_ascii_lowercase() => Ok(self.ident(false)),
            c if c.is_ascii_uppercase() || c == '_' => Ok(self.ident(true)),
            other => Err(self.error(format!("unexpected character `{other}`"))),
        }
    }

    fn string(&mut self) -> LangResult<Tok> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                Some('"') => return Ok(Tok::Str(s)),
                Some('\\') => match self.bump() {
                    Some('n') => s.push('\n'),
                    Some('t') => s.push('\t'),
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    other => {
                        return Err(self.error(format!("bad escape `\\{}`", other.unwrap_or(' '))))
                    }
                },
                Some(c) => s.push(c),
                None => return Err(self.error("unterminated string literal")),
            }
        }
    }

    fn number(&mut self, negative: bool) -> LangResult<Tok> {
        let start = self.i;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
        }
        let mut is_float = false;
        // A decimal point only when followed by a digit — `5.` is the
        // integer 5 ending a statement.
        if self.peek() == Some('.') && self.peek2().is_some_and(|c| c.is_ascii_digit()) {
            is_float = true;
            self.bump();
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some('e' | 'E')) {
            let save = self.i;
            self.bump();
            if matches!(self.peek(), Some('+' | '-')) {
                self.bump();
            }
            if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                is_float = true;
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.bump();
                }
            } else {
                self.i = save; // `3e` was an identifier boundary, back off
            }
        }
        let text: String = self.chars[start..self.i].iter().collect();
        let _ = self.src; // positions already tracked incrementally
        if is_float {
            let v: f64 = text
                .parse()
                .map_err(|_| self.error(format!("bad float literal `{text}`")))?;
            Ok(Tok::Float(if negative { -v } else { v }))
        } else {
            let v: i64 = text
                .parse()
                .map_err(|_| self.error(format!("bad integer literal `{text}`")))?;
            Ok(Tok::Int(if negative { -v } else { v }))
        }
    }

    fn ident(&mut self, is_var: bool) -> Tok {
        let start = self.i;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            self.bump();
        }
        let text: String = self.chars[start..self.i].iter().collect();
        if is_var {
            Tok::Var(text)
        } else {
            Tok::Atom(text)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        tokenize(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn simple_fact() {
        assert_eq!(
            toks("road(s1)."),
            vec![
                Tok::Atom("road".into()),
                Tok::LParen,
                Tok::Atom("s1".into()),
                Tok::RParen,
                Tok::Dot,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn vars_and_numbers() {
        assert_eq!(
            toks("X _y 42 3.5 1e3"),
            vec![
                Tok::Var("X".into()),
                Tok::Var("_y".into()),
                Tok::Int(42),
                Tok::Float(3.5),
                Tok::Float(1000.0),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn integer_dot_ends_statement() {
        assert_eq!(
            toks("p(5)."),
            vec![
                Tok::Atom("p".into()),
                Tok::LParen,
                Tok::Int(5),
                Tok::RParen,
                Tok::Dot,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn qualifier_operators() {
        assert_eq!(
            toks("@u[r] @s[r] @a[r] @ &u[1,2] &s[1,2] &a[1,2] & %"),
            vec![
                Tok::AtU,
                Tok::LBracket,
                Tok::Atom("r".into()),
                Tok::RBracket,
                Tok::AtS,
                Tok::LBracket,
                Tok::Atom("r".into()),
                Tok::RBracket,
                Tok::AtA,
                Tok::LBracket,
                Tok::Atom("r".into()),
                Tok::RBracket,
                Tok::At,
                Tok::AmpU,
                Tok::LBracket,
                Tok::Int(1),
                Tok::Comma,
                Tok::Int(2),
                Tok::RBracket,
                Tok::AmpS,
                Tok::LBracket,
                Tok::Int(1),
                Tok::Comma,
                Tok::Int(2),
                Tok::RBracket,
                Tok::AmpA,
                Tok::LBracket,
                Tok::Int(1),
                Tok::Comma,
                Tok::Int(2),
                Tok::RBracket,
                Tok::Amp,
                Tok::Percent,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn at_followed_by_ident_is_simple_at() {
        // `@uphill(...)` must lex as `@` + atom `uphill`, not `@u`.
        assert_eq!(
            toks("@uphill"),
            vec![Tok::At, Tok::Atom("uphill".into()), Tok::Eof]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("< =< > >= =:= =\\= \\= = == \\== =.. is"),
            vec![
                Tok::Op("<".into()),
                Tok::Op("=<".into()),
                Tok::Op(">".into()),
                Tok::Op(">=".into()),
                Tok::Op("=:=".into()),
                Tok::Op("=\\=".into()),
                Tok::Op("\\=".into()),
                Tok::Op("=".into()),
                Tok::Op("==".into()),
                Tok::Op("\\==".into()),
                Tok::Op("=..".into()),
                Tok::Atom("is".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("a // line comment\n/* block\ncomment */ b"),
            vec![Tok::Atom("a".into()), Tok::Atom("b".into()), Tok::Eof]
        );
    }

    #[test]
    fn neck_and_query() {
        assert_eq!(
            toks(":- ?- ; ' #"),
            vec![
                Tok::Neck,
                Tok::QueryNeck,
                Tok::Semicolon,
                Tok::Quote,
                Tok::Hash,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            toks(r#""hello\nworld""#),
            vec![Tok::Str("hello\nworld".into()), Tok::Eof]
        );
    }

    #[test]
    fn lex_errors_carry_position() {
        let err = tokenize("p(q).\n  $").unwrap_err();
        match err {
            LangError::Lex { pos, .. } => {
                assert_eq!(pos.line, 2);
                assert_eq!(pos.col, 3);
            }
            other => panic!("expected lex error, got {other:?}"),
        }
    }

    #[test]
    fn unterminated_block_comment_errors() {
        assert!(tokenize("/* never closed").is_err());
    }
}
