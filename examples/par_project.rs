//! Running a participatory project with the humnet workflow types:
//! partners, staged engagements, the participation ladder, positionality
//! disclosure, and the patchwork field schedule (paper §2–§5 end to end).
//!
//! ```text
//! cargo run --example par_project
//! ```

use humnet::core::{
    EngagementKind, EthnographyConfig, FieldStudy, MemoPractice, ParProject, ResearchStage,
    Schedule,
};
use humnet::survey::{reflexivity_score, PositionalityFacet, PositionalityStatement};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Set up the project and its partners.
    let mut project = ParProject::new("valley-mesh");
    let village = project.add_partner("valley cooperative", "host community");
    let wisp = project.add_partner("regional WISP", "backhaul partner");

    // 2. Engage partners at every stage — and document it.
    project.engage(
        ResearchStage::ProblemFormation,
        village,
        EngagementKind::CommunityLed,
        "residents listed connectivity pain points at two assemblies",
        true,
    )?;
    project.engage(
        ResearchStage::SolutionDesign,
        village,
        EngagementKind::Collaborated,
        "co-designed node placement with the cooperative's works committee",
        true,
    )?;
    project.engage(
        ResearchStage::SolutionDesign,
        wisp,
        EngagementKind::Consulted,
        "backhaul capacity review call",
        true,
    )?;
    project.engage(
        ResearchStage::Evaluation,
        village,
        EngagementKind::Collaborated,
        "residents ran the two-week pilot and kept outage diaries",
        true,
    )?;
    project.engage(
        ResearchStage::Dissemination,
        village,
        EngagementKind::Consulted,
        "community review of the draft before submission",
        true,
    )?;

    println!(
        "participation score: {:.3} / 1.0",
        project.participation_score()
    );
    println!("§5.1 compliant: {}", project.is_5_1_compliant());
    for stage in ResearchStage::ALL {
        println!(
            "  {:<18} rung {:?}",
            stage.label(),
            project.stage_rung(stage)
        );
    }

    // 3. Positionality: the lead also operates the network, and says so.
    let statement = PositionalityStatement::new()
        .disclose(
            PositionalityFacet::Disciplinary,
            "we write as network engineers leading the study",
        )
        .disclose(
            PositionalityFacet::InstitutionalTies,
            "the first author also operates the deployed network",
        )
        .with_reflection();
    println!("\nreflexivity score: {:.2}", reflexivity_score(&statement)?);
    println!("\nrendered statement:\n  {}", statement.render());

    // 4. Fieldwork under real constraints: patchwork visits with memos.
    let mut field = EthnographyConfig::default();
    field.budget_days = 40;
    field.schedule = Schedule::Patchwork {
        fragments: 5,
        gap_days: 21,
    };
    field.memos = MemoPractice::Reflexive(0.85);
    let outcome = FieldStudy::new(field)?.run();
    println!(
        "\nfieldwork: {} days on site across 5 visits -> {:.0}% of available insight harvested \
         (mean depth {:.2})",
        outcome.days_on_site,
        100.0 * outcome.saturation,
        outcome.mean_depth
    );
    Ok(())
}
