//! Error-taxonomy contract: every crate's error enum is a well-behaved
//! `std::error::Error` (`+ Send + Sync + 'static`, so it can cross thread
//! boundaries and live in boxed chains), its Display output is a plain
//! lowercase message without trailing punctuation, and
//! `CoreError::Upstream` preserves the originating error so `source()`
//! walks back to it.

use humnet::agenda::AgendaError;
use humnet::community::CommunityError;
use humnet::core::CoreError;
use humnet::corpus::CorpusError;
use humnet::ixp::IxpError;
use humnet::qual::QualError;
use humnet::resilience::render_chain;
use humnet::stats::StatsError;
use humnet::survey::SurveyError;
use std::error::Error;

/// Compile-time assertion: the type is usable as a boxed, thread-safe
/// error. Instantiated below for every crate error enum — if any crate
/// drops an impl, this test file stops compiling.
fn assert_error<E: Error + Send + Sync + 'static>() {}

#[test]
fn every_crate_error_enum_is_a_thread_safe_error() {
    assert_error::<StatsError>();
    assert_error::<CorpusError>();
    assert_error::<QualError>();
    assert_error::<IxpError>();
    assert_error::<CommunityError>();
    assert_error::<AgendaError>();
    assert_error::<SurveyError>();
    assert_error::<CoreError>();
}

#[test]
fn display_messages_are_tidy() {
    // A representative value per enum; Display must be nonempty, not
    // Debug-shaped, and not end in punctuation.
    let messages: Vec<String> = vec![
        StatsError::EmptyInput.to_string(),
        CorpusError::EmptyCorpus.to_string(),
        QualError::EmptyInput.to_string(),
        IxpError::InvalidAs(7).to_string(),
        CommunityError::EmptyInput.to_string(),
        AgendaError::EmptyInput.to_string(),
        SurveyError::EmptyInput.to_string(),
        CoreError::EmptyInput.to_string(),
        CoreError::InvalidParameter("probability").to_string(),
        CoreError::NotFound("partner").to_string(),
    ];
    for msg in messages {
        assert!(!msg.is_empty());
        assert!(
            !msg.ends_with(['.', '!', '\n']),
            "error message ends with punctuation: {msg:?}"
        );
        assert!(
            !msg.contains("Error {") && !msg.contains("::"),
            "Display looks Debug-shaped: {msg:?}"
        );
    }
}

#[test]
fn upstream_preserves_the_source_chain() {
    let core = CoreError::upstream("t3 sustainability", CommunityError::EmptyInput);
    // Display shows stage + source...
    assert_eq!(
        core.to_string(),
        format!("t3 sustainability: {}", CommunityError::EmptyInput)
    );
    // ...and source() walks back to the typed originating error.
    let source = core.source().expect("Upstream must expose a source");
    let community = source
        .downcast_ref::<CommunityError>()
        .expect("source downcasts to the originating enum");
    assert_eq!(*community, CommunityError::EmptyInput);
    // Non-upstream variants expose no source.
    assert!(CoreError::EmptyInput.source().is_none());
}

#[test]
fn render_chain_walks_nested_upstreams() {
    let inner = CoreError::upstream("lorenz", StatsError::EmptyInput);
    let outer = CoreError::upstream("f1 attention", inner);
    let chain = render_chain(&outer);
    // Both stages and the root cause appear once each.
    assert!(chain.starts_with("f1 attention: lorenz:"), "{chain}");
    assert_eq!(chain.matches("lorenz").count(), 1, "{chain}");
    assert!(
        chain.contains(&StatsError::EmptyInput.to_string()),
        "{chain}"
    );
}

#[test]
fn experiment_failures_carry_their_origin() {
    // An experiment that fails inside a domain crate surfaces a CoreError
    // whose source is the domain crate's own error type.
    let mut cfg = humnet::agenda::AgendaConfig::default();
    cfg.researchers = 0; // invalid: the agenda crate rejects it
    let err = humnet::agenda::AgendaSim::new(cfg).unwrap_err();
    let core = CoreError::upstream("agenda config", err);
    assert!(core
        .source()
        .unwrap()
        .downcast_ref::<AgendaError>()
        .is_some());
}
