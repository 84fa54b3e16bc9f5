//! The paper's analysis tables — **Table 2**, **Table 4**, **Table 7**
//! — and `explain-app`, the per-pair provenance behind every IPM entry.

use crate::TextTable;
use scs_apps::{toystore, BenchApp};
use scs_core::{explain_pair, AReason, AValue, AnalysisOptions, IpmEntry};
use scs_dssp::{Dssp, DsspConfig, HomeServer, StrategyKind};
use scs_sqlkit::{Query, Update, Value};
use scs_storage::Database;

/// **Table 2**: which cached query results the DSSP must invalidate on
/// seeing the update `U1(5)` = `DELETE FROM toys WHERE toy_id = 5`, as a
/// function of the information it can access.
pub fn table2() {
    let app = toystore::simple_toystore();
    let matrix = scs_apps::analysis_matrix(&app);

    // The cached instances we inspect, labeled as in the paper's
    // discussion: all of Q1, two instances of Q2, one of Q3.
    let instances: Vec<(&str, usize, Vec<Value>)> = vec![
        ("Q1('bear')", 0, vec![Value::str("bear")]),
        ("Q1('car')", 0, vec![Value::str("car")]),
        ("Q2(5)", 1, vec![Value::Int(5)]),
        ("Q2(7)", 1, vec![Value::Int(7)]),
        ("Q3(1)", 2, vec![Value::Int(1)]),
    ];

    let mut table = TextTable::new(&["Accessible information", "Invalidated on U1(5)"]);

    for kind in [
        StrategyKind::Blind,
        StrategyKind::TemplateInspection,
        StrategyKind::StatementInspection,
        StrategyKind::ViewInspection,
    ] {
        let invalidated = table2_scenario(&app, &matrix, kind, &instances);
        let label = match kind {
            StrategyKind::Blind => "none (all encrypted)",
            StrategyKind::TemplateInspection => "templates",
            StrategyKind::StatementInspection => "templates + parameters",
            StrategyKind::ViewInspection => "templates + parameters + results",
        };
        table.row(&[label.to_string(), invalidated.join(", ")]);
    }

    println!("Table 2 — invalidations for U1(5) = DELETE FROM toys WHERE toy_id = 5");
    println!("(simple-toystore; cached: Q1 x2, Q2(5), Q2(7), Q3(1))\n");
    print!("{}", table.render());
    println!("\nPaper's rows: all / all Q1 + all Q2 / all Q1 + Q2 if toy_id=5 /");
    println!("Q1 if toy_id=5 + Q2 if toy_id=5.");
}

fn table2_scenario(
    app: &scs_apps::AppDef,
    matrix: &scs_core::IpmMatrix,
    kind: StrategyKind,
    instances: &[(&str, usize, Vec<Value>)],
) -> Vec<String> {
    let mut db = Database::new();
    for s in &app.schemas {
        db.create_table(s.clone()).expect("static schema");
    }
    let mut rng = rand::SeedableRng::seed_from_u64(1);
    toystore::populate(&mut db, 20, 10, &mut rng);
    let mut home = HomeServer::new(db);
    let mut dssp = Dssp::new(DsspConfig::new(
        "simple-toystore",
        kind.exposures(app.updates.len(), app.queries.len()),
        matrix.clone(),
    ));

    // Warm the cache with every instance.
    for (_, tid, params) in instances {
        let q =
            Query::bind(*tid, app.queries[*tid].template.clone(), params.clone()).expect("arity");
        dssp.execute_query(&q, &mut home).expect("valid query");
    }
    // Apply U1(5) and observe which entries survive.
    let u = Update::bind(0, app.updates[0].template.clone(), vec![Value::Int(5)]).expect("arity");
    dssp.execute_update(&u, &mut home).expect("valid update");

    instances
        .iter()
        .filter(|(_, tid, params)| {
            !dssp
                .cache_entries()
                .any(|e| e.key().template_id == *tid && &e.key().params == params)
        })
        .map(|(name, _, _)| name.to_string())
        .collect()
}

/// **Table 4**: the IPM characterization of the extended toystore
/// application (Table 3).
pub fn table4() {
    let app = toystore::toystore();
    let matrix = scs_apps::analysis_matrix(&app);

    let mut table = TextTable::new(&["", "Q1", "Q2", "Q3"]);
    for (i, u) in app.updates.iter().enumerate() {
        let cells: Vec<String> = (0..app.queries.len())
            .map(|j| describe(matrix.entry(i, j), i + 1, j + 1))
            .collect();
        table.row(&[
            format!("U{} ({})", i + 1, u.name),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
        ]);
    }
    println!("Table 4 — IPM characterization of the toystore application\n");
    print!("{}", table.render());
    println!("\nPaper: A11=1 B11=A11 C11<B11 | A12=1 B12<A12 C12=B12 | A13=0");
    println!("       A21=0              | A22=0              | A23=1 B23<A23 C23=B23");
}

fn describe(e: IpmEntry, i: usize, j: usize) -> String {
    if e.all_zero() {
        return format!("A{i}{j}=0");
    }
    let a = match e.a {
        AValue::Zero => unreachable!(),
        AValue::One => format!("A{i}{j}=1"),
    };
    let b = if e.b_eq_a {
        format!("B{i}{j}=A{i}{j}")
    } else {
        format!("B{i}{j}<A{i}{j}")
    };
    let c = if e.c_eq_b {
        format!("C{i}{j}=B{i}{j}")
    } else {
        format!("C{i}{j}<B{i}{j}")
    };
    format!("{a} {b} {c}")
}

/// **Table 7**: IPM characterization counts for the three benchmark
/// applications — the number of update/query template pairs with
/// `A = B = C = 0`, and the `A = 1` pairs split by whether `B = A` and
/// `C = B` hold.
pub fn table7() {
    let mut table = TextTable::new(&[
        "Application",
        "pairs",
        "A=B=C=0",
        "A=1,B<A,C=B",
        "A=1,B<A,C<B",
        "A=1,B=A,C=B",
        "A=1,B=A,C<B",
    ]);

    for app in BenchApp::ALL {
        let def = app.def();
        let matrix = scs_apps::analysis_matrix(&def);
        let t = matrix.tally();
        table.row(&[
            format!(
                "{} ({}U x {}Q)",
                def.name,
                def.updates.len(),
                def.queries.len()
            ),
            t.total().to_string(),
            t.a_zero.to_string(),
            t.b_lt_a_c_eq_b.to_string(),
            t.b_lt_a_c_lt_b.to_string(),
            t.b_eq_a_c_eq_b.to_string(),
            t.b_eq_a_c_lt_b.to_string(),
        ]);
    }

    println!("Table 7 — IPM characterization results for the three applications\n");
    print!("{}", table.render());
    println!();
    println!("Paper's claim to verify: for each application the majority of pairs");
    println!("have A = B = C = 0, and among the A = 1 pairs the equalities B = A");
    println!("and/or C = B hold for the majority.");

    for app in BenchApp::ALL {
        let def = app.def();
        let matrix = scs_apps::analysis_matrix(&def);
        let t = matrix.tally();
        let zero_frac = t.a_zero as f64 / t.total() as f64;
        let a1 = t.total() - t.a_zero;
        let eq = t.b_lt_a_c_eq_b + t.b_eq_a_c_eq_b + t.b_eq_a_c_lt_b;
        println!(
            "  {}: {:.0}% of pairs ignorable; {}/{} of A=1 pairs have B=A and/or C=B",
            def.name,
            zero_frac * 100.0,
            eq,
            a1
        );
    }
}

/// Prints the full per-pair provenance of the static analysis for one
/// application — the §4 reasoning behind every IPM entry, in the form
/// an administrator would consult during Step 3 of the methodology.
/// Without `show_all`, ignorable pairs are summarized.
pub fn explain_app(app: BenchApp, show_all: bool) {
    let def = app.def();
    let catalog = def.catalog();
    println!(
        "Static-analysis provenance for `{}` ({} update × {} query templates)\n",
        def.name,
        def.updates.len(),
        def.queries.len()
    );

    let mut ignorable = 0usize;
    for (i, u) in def.updates.iter().enumerate() {
        for (j, q) in def.queries.iter().enumerate() {
            let e = explain_pair(
                &u.template,
                &q.template,
                &catalog,
                AnalysisOptions::default(),
            );
            let is_zero = matches!(
                e.a,
                AReason::Ignorable | AReason::InsertionBlockedByConstraints
            );
            if is_zero && !show_all {
                ignorable += 1;
                continue;
            }
            println!("[{:>2},{:>2}] {} / {}", i, j, u.name, q.name);
            println!("        {}", e.render());
        }
    }
    if !show_all {
        println!("\n({ignorable} ignorable pairs suppressed — rerun with --all to see them)");
    }
}
