//! Tokenizer for the transaction-program syntax.

use crate::error::{Result, TpError};

/// A lexical token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Token {
    /// Identifier or keyword candidate.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// String literal (without quotes).
    Str(String),
    /// `:=`
    Assign,
    /// `;`
    Semi,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `=` or `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
}

/// Tokenize program source text. `#`-comments run to end of line.
pub(crate) fn tokenize(src: &str) -> Result<Vec<Token>> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            ';' => {
                out.push(Token::Semi);
                i += 1;
            }
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            '{' => {
                out.push(Token::LBrace);
                i += 1;
            }
            '}' => {
                out.push(Token::RBrace);
                i += 1;
            }
            ',' => {
                out.push(Token::Comma);
                i += 1;
            }
            '+' => {
                out.push(Token::Plus);
                i += 1;
            }
            '-' => {
                out.push(Token::Minus);
                i += 1;
            }
            '*' => {
                out.push(Token::Star);
                i += 1;
            }
            ':' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Assign);
                    i += 2;
                } else {
                    return Err(TpError::Lex {
                        at: i,
                        msg: "expected ':='".into(),
                    });
                }
            }
            '=' => {
                out.push(Token::Eq);
                i += if bytes.get(i + 1) == Some(&b'=') {
                    2
                } else {
                    1
                };
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Ne);
                    i += 2;
                } else {
                    out.push(Token::Bang);
                    i += 1;
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Le);
                    i += 2;
                } else {
                    out.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Ge);
                    i += 2;
                } else {
                    out.push(Token::Gt);
                    i += 1;
                }
            }
            '&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    out.push(Token::AndAnd);
                    i += 2;
                } else {
                    return Err(TpError::Lex {
                        at: i,
                        msg: "expected '&&'".into(),
                    });
                }
            }
            '|' => {
                if bytes.get(i + 1) == Some(&b'|') {
                    out.push(Token::OrOr);
                    i += 2;
                } else {
                    return Err(TpError::Lex {
                        at: i,
                        msg: "expected '||' (use abs(x) for absolute value)".into(),
                    });
                }
            }
            '"' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' {
                    j += 1;
                }
                if j == bytes.len() {
                    return Err(TpError::Lex {
                        at: i,
                        msg: "unterminated string literal".into(),
                    });
                }
                out.push(Token::Str(src[start..j].to_owned()));
                i = j + 1;
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let text = &src[start..i];
                let v = text.parse::<i64>().map_err(|_| TpError::Lex {
                    at: start,
                    msg: format!("integer literal {text} out of range"),
                })?;
                out.push(Token::Int(v));
            }
            _ if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let ch = bytes[i] as char;
                    if ch.is_ascii_alphanumeric() || ch == '_' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.push(Token::Ident(src[start..i].to_owned()));
            }
            _ => {
                return Err(TpError::Lex {
                    at: i,
                    msg: format!("unexpected character {c:?}"),
                })
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_paper_style_program() {
        let toks = tokenize("a := 1; if (c > 0) then { b := abs(b) + 1; }").unwrap();
        assert_eq!(toks[0], Token::Ident("a".into()));
        assert_eq!(toks[1], Token::Assign);
        assert_eq!(toks[2], Token::Int(1));
        assert_eq!(toks[3], Token::Semi);
        assert!(toks.contains(&Token::Gt));
        assert!(toks.contains(&Token::LBrace));
    }

    #[test]
    fn comments_are_skipped() {
        let toks = tokenize("# header\na := 1; # trailing\n").unwrap();
        assert_eq!(toks.len(), 4);
    }

    #[test]
    fn two_char_operators() {
        let toks = tokenize("<= >= != == && || :=").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Le,
                Token::Ge,
                Token::Ne,
                Token::Eq,
                Token::AndAnd,
                Token::OrOr,
                Token::Assign
            ]
        );
    }

    #[test]
    fn string_literals() {
        let toks = tokenize("name := \"Jim\";").unwrap();
        assert_eq!(toks[2], Token::Str("Jim".into()));
    }

    #[test]
    fn lex_errors() {
        assert!(tokenize("a : 1").is_err());
        assert!(tokenize("a & b").is_err());
        assert!(tokenize("\"open").is_err());
        assert!(tokenize("a := 99999999999999999999;").is_err());
        assert!(tokenize("a := 1 @").is_err());
    }

    #[test]
    fn negative_numbers_are_minus_then_int() {
        let toks = tokenize("a := -1;").unwrap();
        assert_eq!(toks[2], Token::Minus);
        assert_eq!(toks[3], Token::Int(1));
    }
}
