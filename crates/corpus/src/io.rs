//! Corpus serialization: JSON round-trips and CSV export.

use crate::model::Corpus;
use crate::Result;
use std::io::Write;
use std::path::Path;

/// Serialize a corpus to a JSON string.
pub fn to_json(corpus: &Corpus) -> Result<String> {
    Ok(serde_json::to_string(corpus)?)
}

/// Deserialize a corpus from a JSON string and validate it.
pub fn from_json(json: &str) -> Result<Corpus> {
    let corpus: Corpus = serde_json::from_str(json)?;
    corpus.validate()?;
    Ok(corpus)
}

/// Write a corpus to a JSON file.
pub fn save_json(corpus: &Corpus, path: &Path) -> Result<()> {
    let json = to_json(corpus)?;
    let mut f = std::fs::File::create(path)?;
    f.write_all(json.as_bytes())?;
    Ok(())
}

/// Read a corpus from a JSON file.
pub fn load_json(path: &Path) -> Result<Corpus> {
    let json = std::fs::read_to_string(path)?;
    from_json(&json)
}

/// Export the paper table as CSV (one row per paper; methods joined with
/// `;`). Fields containing commas or quotes are quoted per RFC 4180.
pub fn papers_to_csv(corpus: &Corpus) -> String {
    let mut out = String::from(
        "id,year,venue,venue_kind,topic,n_authors,n_citations,methods,\
         documents_partnerships,documents_conversations,title\n",
    );
    for p in &corpus.papers {
        let venue = &corpus.venues[p.venue];
        let methods = p
            .methods
            .iter()
            .map(|m| m.label())
            .collect::<Vec<_>>()
            .join(";");
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{}\n",
            p.id,
            p.year,
            csv_field(&venue.name),
            venue.kind.label(),
            p.topic.label(),
            p.authors.len(),
            p.citations.len(),
            methods,
            p.documents_partnerships,
            p.documents_conversations,
            csv_field(&p.title),
        ));
    }
    out
}

fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::CorpusConfig;

    fn corpus() -> Corpus {
        let mut cfg = CorpusConfig::default();
        cfg.years = 2;
        for v in cfg.venues.iter_mut() {
            v.papers_per_year = 4;
        }
        cfg.author_pool = 30;
        cfg.generate(5, &humnet_telemetry::Telemetry::disabled()).unwrap()
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let c = corpus();
        let json = to_json(&c).unwrap();
        let back = from_json(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn from_json_validates() {
        // Corrupt a venue reference.
        let c = corpus();
        let mut json: serde_json::Value = serde_json::from_str(&to_json(&c).unwrap()).unwrap();
        json["papers"][0]["venue"] = serde_json::json!(999);
        assert!(from_json(&json.to_string()).is_err());
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(from_json("not json").is_err());
        assert!(from_json("{}").is_err() || from_json("{}").is_ok());
        // '{}' deserializes to empty corpus via defaults; that's valid.
    }

    #[test]
    fn file_round_trip() {
        let c = corpus();
        let dir = std::env::temp_dir().join("humnet_corpus_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.json");
        save_json(&c, &path).unwrap();
        let back = load_json(&path).unwrap();
        assert_eq!(c, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_has_header_and_rows() {
        let c = corpus();
        let csv = papers_to_csv(&c);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), c.papers.len() + 1);
        assert!(lines[0].starts_with("id,year,venue"));
        // Every data row has the right number of top-level commas when no
        // quoted fields contain commas; just sanity-check the first.
        assert!(lines[1].split(',').count() >= 11);
    }

    #[test]
    fn csv_quotes_fields_with_commas() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
