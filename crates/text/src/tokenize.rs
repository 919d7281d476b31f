//! Word tokenization and sentence splitting.

/// Split text into lowercase word tokens. A token is a maximal run of
/// alphanumeric characters; hyphens and apostrophes inside a word are kept
/// (so "community-run" and "don't" stay single tokens), leading/trailing
/// punctuation is stripped.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            current.extend(ch.to_lowercase());
        } else if (ch == '-' || ch == '\'') && !current.is_empty() {
            current.push(ch);
        } else if !current.is_empty() {
            flush(&mut tokens, &mut current);
        }
    }
    if !current.is_empty() {
        flush(&mut tokens, &mut current);
    }
    tokens
}

fn flush(tokens: &mut Vec<String>, current: &mut String) {
    // Trim trailing joiners left by "word- " patterns.
    while current.ends_with('-') || current.ends_with('\'') {
        current.pop();
    }
    if !current.is_empty() {
        tokens.push(std::mem::take(current));
    } else {
        current.clear();
    }
}

/// Split text into sentences on `.`, `!`, `?` boundaries, trimming
/// whitespace and dropping empties. Abbreviation handling is intentionally
/// minimal — humnet's synthetic text does not use abbreviations.
pub fn sentences(text: &str) -> Vec<String> {
    text.split(['.', '!', '?'])
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_basic() {
        assert_eq!(
            tokenize("The Internet is not merely routers!"),
            vec!["the", "internet", "is", "not", "merely", "routers"]
        );
    }

    #[test]
    fn tokenize_keeps_internal_hyphens() {
        assert_eq!(
            tokenize("community-run networks; don't abstract"),
            vec!["community-run", "networks", "don't", "abstract"]
        );
    }

    #[test]
    fn tokenize_strips_trailing_hyphen() {
        assert_eq!(tokenize("last- mile"), vec!["last", "mile"]);
    }

    #[test]
    fn tokenize_numbers_kept() {
        assert_eq!(
            tokenize("BGP4 and 35 IXPs"),
            vec!["bgp4", "and", "35", "ixps"]
        );
    }

    #[test]
    fn tokenize_empty_and_punct_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("... --- !!!").is_empty());
    }

    #[test]
    fn sentences_split() {
        let s = sentences("Networks are operated. They are experienced! Are they measured?");
        assert_eq!(s.len(), 3);
        assert_eq!(s[0], "Networks are operated");
    }

    #[test]
    fn sentences_empty() {
        assert!(sentences("").is_empty());
        assert!(sentences("...").is_empty());
    }
}
