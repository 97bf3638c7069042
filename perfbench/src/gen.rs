//! Seeded generation of entries, comments and query terms.

use bx_core::{ExampleEntry, ExampleType};

use crate::stats::Rng;

/// Vocabulary for entry prose and for query terms (every word is an
/// index token: lowercase alphanumeric, at least two letters).
pub const WORDS: [&str; 32] = [
    "model", "view", "lens", "sync", "update", "schema", "table", "record", "composer", "date",
    "nation", "person", "family", "class", "diagram", "relation", "source", "target", "delta",
    "edit", "merge", "key", "order", "list", "tree", "graph", "trace", "rule", "pair", "state",
    "put", "get",
];

/// A sentence of `words.start..words.end` vocabulary words.
pub fn sentence(rng: &mut Rng, words: std::ops::Range<usize>) -> String {
    let words = words.start + rng.below(words.len().max(1));
    let mut out = String::new();
    for i in 0..words {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(WORDS[rng.below(WORDS.len())]);
    }
    out.push('.');
    out
}

/// A valid entry titled `title`, authored by `author`.
pub fn entry(rng: &mut Rng, title: &str, author: &str) -> ExampleEntry {
    ExampleEntry::builder(title)
        .of_type(ExampleType::Precise)
        .overview(&sentence(rng, 6..12))
        .models(&sentence(rng, 4..5))
        .consistency(&sentence(rng, 4..5))
        .restoration(&sentence(rng, 3..4), &sentence(rng, 3..4))
        .discussion(&sentence(rng, 4..8))
        .author(author)
        .build()
        .expect("generated entries satisfy the template")
}

/// The next version of `latest`: new overview and discussion text.
pub fn revision(rng: &mut Rng, latest: &ExampleEntry) -> ExampleEntry {
    let mut next = latest.clone();
    next.overview = sentence(rng, 6..12);
    next.discussion = sentence(rng, 4..8);
    next
}

pub fn comment_text(rng: &mut Rng) -> String {
    sentence(rng, 3..8)
}

/// A date in the paper's year, for comments.
pub fn date(rng: &mut Rng) -> String {
    format!("2014-{:02}-{:02}", 1 + rng.below(12), 1 + rng.below(28))
}

/// One or two query terms from the vocabulary.
pub fn query_terms(rng: &mut Rng) -> Vec<&'static str> {
    let n = 1 + rng.below(2);
    (0..n).map(|_| WORDS[rng.below(WORDS.len())]).collect()
}
