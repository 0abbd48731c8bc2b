//! Correctness harness for the optimization pipeline: every design runs in
//! lockstep on the reference interpreter, the unoptimized compiled engine,
//! and the optimized compiled engine, asserting bit-identical snapshots,
//! output, and effects at every tick. A proptest leg checks that *any*
//! subset of passes is snapshot-identical to `O0`.

use proptest::prelude::*;
use synergy_codegen::CompiledSim;
use synergy_interp::{BufferEnv, Interpreter};
use synergy_opt::{optimize_with_passes, OptReport, PASS_NAMES};

/// All tricky-corner designs, shared between the lockstep tests and the
/// pass-subset proptest.
const CORPUS: &[(&str, &str, &str, usize)] = &[
    (
        "ternaries",
        r#"module M(input wire clock, output wire [7:0] out);
               reg [7:0] a = 3;
               reg [7:0] b = 250;
               wire [7:0] m = (a > b) ? a : b;
               wire [7:0] n = a[0] ? (m + 1) : (m - 1);
               always @(posedge clock) begin
                   a <= a + 7;
                   if (b > 8'd128) b <= b - 3; else b <= b + 9;
               end
               assign out = m ^ n;
           endmodule"#,
        "clock",
        200,
    ),
    (
        "common_subexpressions",
        r#"module M(input wire clock, output wire [31:0] out);
               reg [15:0] x = 1;
               reg [15:0] y = 2;
               wire [31:0] p = (x * y) + (x * y) + ((x * y) >> 3);
               reg [31:0] acc = 0;
               always @(posedge clock) begin
                   acc <= acc + (x + y) * (x + y);
                   x <= x + 3;
                   y <= y ^ (x + y) * (x + y);
               end
               assign out = p + acc;
           endmodule"#,
        "clock",
        150,
    ),
    (
        "strength_candidates",
        r#"module M(input wire clock, output wire [31:0] out);
               reg [31:0] v = 7;
               wire [31:0] a = v * 8;
               wire [31:0] b = v / 4;
               wire [31:0] c = v % 16;
               wire [31:0] d = (v + 0) | 0;
               wire [31:0] e = v * 1;
               wire [31:0] f = v * 0;
               always @(posedge clock) v <= v * 3 + 1;
               assign out = a + b + c + d + e + f;
           endmodule"#,
        "clock",
        100,
    ),
    (
        "dead_and_double_stores",
        r#"module M(input wire clock, output wire [15:0] out);
               reg [15:0] r = 0;
               reg [15:0] s = 0;
               reg [7:0] mem [0:3];
               always @(posedge clock) begin
                   r = 16'd1;
                   r = 16'd2;
                   r = r + s;
                   mem[1] = 8'd9;
                   mem[1] = r[7:0];
                   s <= s + mem[1];
               end
               assign out = r + s;
           endmodule"#,
        "clock",
        120,
    ),
    (
        "const_and_copy_nets",
        r#"module M(input wire clock, output wire [15:0] out);
               wire [15:0] k = 16'h1234;
               wire [15:0] kk = k;
               reg [15:0] r = 0;
               wire [15:0] sum = kk + r;
               always @(posedge clock) r <= r + kk[3:0];
               assign out = sum;
           endmodule"#,
        "clock",
        100,
    ),
    (
        "fusable_plumbing",
        r#"module M(input wire clock, output wire [31:0] out);
               reg [15:0] x = 5;
               wire [31:0] t1 = x * 3;
               wire [31:0] t2 = t1 + 7;
               wire [31:0] t3 = t2 ^ (t2 >> 2);
               wire [31:0] unused = t2 * 99;
               always @(posedge clock) x <= x + 11;
               assign out = t3;
           endmodule"#,
        "clock",
        120,
    ),
    (
        "nb_latch_boundary",
        r#"module M(input wire clock, output wire [15:0] out);
               reg [15:0] a = 1;
               reg [15:0] b = 0;
               reg [15:0] seen = 0;
               always @(posedge clock) begin
                   // a+b is read, a is NB-assigned, then a+b is read again:
                   // both reads must see the PRE-latch a.
                   seen = a + b;
                   a <= a + 5;
                   seen = seen + (a + b);
                   b <= seen[7:0];
               end
               assign out = seen;
           endmodule"#,
        "clock",
        150,
    ),
    (
        "guards_and_star",
        r#"module M(input wire clock, output wire [7:0] out);
               reg [7:0] div = 0;
               reg [7:0] cnt = 0;
               reg [7:0] m = 0;
               wire gate = div[1];
               always @(posedge clock) div <= div + 1;
               always @(posedge gate) cnt <= cnt + 1;
               always @* m = cnt > div ? cnt : div;
               assign out = m;
           endmodule"#,
        "clock",
        200,
    ),
    (
        "finish_and_effects",
        r#"module M(input wire clock);
               reg [31:0] n = 0;
               always @(posedge clock) begin
                   $yield;
                   n <= n + 1;
                   if (n == 3) $save("ckpt");
                   if (n == 40) $finish(5);
               end
           endmodule"#,
        "clock",
        50,
    ),
    (
        "file_io_loops_mems",
        r#"module M(input wire clock, output wire [31:0] out);
               integer fd = $fopen("data.bin");
               reg [31:0] buffer [0:7];
               reg [31:0] total = 0;
               integer i = 0;
               always @(posedge clock) begin
                   for (i = 0; i < 4; i = i + 1)
                       $fread(fd, buffer[i]);
                   total = 0;
                   for (i = 0; i < 4; i = i + 1)
                       total = total + buffer[i] * 4 + (buffer[i] % 8);
                   if ($feof(fd)) $finish(0);
               end
               assign out = total;
           endmodule"#,
        "clock",
        20,
    ),
    (
        "wide_values",
        r#"module M(input wire clock, output wire [31:0] lo);
               reg [127:0] acc = 128'd1;
               wire [127:0] dbl = acc * 2;
               wire [127:0] same = dbl + dbl;
               always @(posedge clock) acc <= same - (acc >> 3) + 1;
               assign lo = acc[31:0];
           endmodule"#,
        "clock",
        80,
    ),
    (
        "nb_direct_candidate",
        r#"module M(input wire clock, output wire [15:0] out);
               // Single always block; a and b are only observed through
               // their own comb cone, which nothing else reads — the
               // nbdirect pass may turn both latches into direct stores.
               reg [15:0] a = 1;
               reg [15:0] b = 2;
               wire [15:0] s = a + b;
               wire [15:0] t = (s << 1) ^ a;
               always @(posedge clock) begin
                   a <= a + 3;
                   b <= b ^ s;
               end
               assign out = t;
           endmodule"#,
        "clock",
        200,
    ),
    (
        "nb_cross_block_observer",
        r#"module M(input wire clock, output wire [15:0] out);
               // p is read by the negedge block, so its latch delay IS
               // observable and must survive; q is only read by its own
               // single-fire owner, so it may convert.
               reg [7:0] p = 0;
               reg [15:0] q = 0;
               always @(posedge clock) p <= p + 1;
               always @(negedge clock) q <= q + p;
               assign out = q + p;
           endmodule"#,
        "clock",
        200,
    ),
    (
        "one_arm_if_stores",
        r#"module M(input wire clock, output wire [15:0] out);
               reg [15:0] r = 0;
               reg [7:0] mem [0:3];
               reg [15:0] acc = 0;
               always @(posedge clock) begin
                   if (r[0]) r = r + 3;
                   if (r[1]) mem[2] = r[7:0];
                   if (r[2]) acc <= acc + 1;
                   r = r + 1;
               end
               assign out = r + acc + mem[2];
           endmodule"#,
        "clock",
        200,
    ),
];

fn files_for(name: &str) -> Vec<(String, Vec<u64>)> {
    if name == "file_io_loops_mems" {
        vec![("data.bin".to_string(), (1..=40).collect())]
    } else {
        Vec::new()
    }
}

/// Runs one corpus entry on interpreter + O0 + optimized-with-`passes`,
/// asserting lockstep equality. Returns the optimizer report.
fn run_lockstep(entry: &(&str, &str, &str, usize), passes: &[&str]) -> OptReport {
    let (name, src, clock, ticks) = *entry;
    let design = synergy_vlog::compile(src, "M").unwrap();
    let base = synergy_codegen::compile(&design).unwrap();
    let mut opt_prog = base.clone();
    let report = optimize_with_passes(&mut opt_prog, passes);

    let mut interp = Interpreter::new(design);
    let mut o0 = CompiledSim::new(base).unwrap();
    let mut opt = CompiledSim::new(opt_prog).unwrap();
    let mut ienv = BufferEnv::new();
    let mut zenv = BufferEnv::new();
    let mut oenv = BufferEnv::new();
    for (path, data) in files_for(name) {
        ienv.add_file(path.clone(), data.clone());
        zenv.add_file(path.clone(), data.clone());
        oenv.add_file(path, data);
    }
    for t in 0..ticks {
        interp.tick(clock, &mut ienv).unwrap();
        o0.tick(clock, &mut zenv).unwrap();
        opt.tick(clock, &mut oenv).unwrap();
        assert_eq!(
            interp.save_state(),
            opt.save_state(),
            "{}: optimized snapshot diverges from interpreter at tick {} (passes {:?})",
            name,
            t,
            passes
        );
        assert_eq!(
            o0.save_state(),
            opt.save_state(),
            "{}: optimized snapshot diverges from O0 at tick {}",
            name,
            t
        );
        assert_eq!(
            interp.finished(),
            opt.finished(),
            "{}: finish diverges",
            name
        );
    }
    assert_eq!(ienv.output_text(), oenv.output_text(), "{}: output", name);
    assert_eq!(
        interp.take_effects(),
        opt.take_effects(),
        "{}: effects",
        name
    );
    report
}

#[test]
fn full_pipeline_matches_interpreter_on_corpus() {
    let mut any_reverted = Vec::new();
    for entry in CORPUS {
        let report = run_lockstep(entry, &PASS_NAMES);
        for p in &report.passes {
            if p.reverted {
                any_reverted.push(format!("{}: {}", entry.0, p.name));
            }
        }
    }
    assert!(
        any_reverted.is_empty(),
        "passes were reverted (legal but indicates a pass bug): {:?}",
        any_reverted
    );
}

#[test]
fn each_pass_alone_matches_interpreter_on_corpus() {
    for pass in PASS_NAMES {
        for entry in CORPUS {
            run_lockstep(entry, &[pass]);
        }
    }
}

#[test]
fn pipeline_actually_optimizes() {
    // The pipeline must shrink its target patterns, not just be harmless.
    let fires = |name: &str, min: u64| {
        let entry = CORPUS.iter().find(|e| e.0 == name).unwrap();
        let design = synergy_vlog::compile(entry.1, "M").unwrap();
        let mut prog = synergy_codegen::compile(&design).unwrap();
        let report = synergy_opt::optimize(&mut prog);
        assert!(
            report.total_rewrites() >= min,
            "{}: expected >= {} rewrites, report: {:?}",
            name,
            min,
            report.passes
        );
        report
    };
    fires("ternaries", 1);
    fires("common_subexpressions", 2);
    fires("strength_candidates", 3);
    fires("dead_and_double_stores", 1);
    fires("const_and_copy_nets", 1);
    let r = fires("fusable_plumbing", 2);
    let dce = r.passes.iter().find(|p| p.name == "dce").unwrap();
    assert!(dce.rewrites >= 1, "unused wire cone should be removed");
}

#[test]
fn dce_keeps_guard_read_and_register_nets() {
    // The `gate` net feeds a posedge guard; its driver must survive even
    // though no comb node reads it. Registers survive unconditionally
    // (snapshots and $save capture them).
    let entry = CORPUS.iter().find(|e| e.0 == "guards_and_star").unwrap();
    let design = synergy_vlog::compile(entry.1, "M").unwrap();
    let mut prog = synergy_codegen::compile(&design).unwrap();
    let synergy_codegen::SlotRef::Net(gate) = prog.slot("gate").expect("gate net exists") else {
        panic!("gate is a net");
    };
    synergy_opt::optimize_with_passes(&mut prog, &["dce"]);
    let still_driven = prog.comb.iter().any(|n| {
        n.code
            .iter()
            .any(|op| matches!(op, synergy_codegen::Op::StoreNet(s) if *s == gate))
    });
    assert!(still_driven, "guard-read net lost its driver");
}

#[test]
fn cse_does_not_merge_reads_across_nb_latch() {
    // Behavioral check of the NB rule: `a + b` before and after `a <= ...`
    // must both see the pre-latch value — which CSE exploits (both reads
    // merge) precisely BECAUSE NbSchedule does not change net state. The
    // lockstep harness proves the merged program still matches.
    let entry = CORPUS.iter().find(|e| e.0 == "nb_latch_boundary").unwrap();
    run_lockstep(entry, &["cse"]);
    // And with a blocking store between the reads, CSE must NOT merge:
    // exercised by `dead_and_double_stores` (r = ...; r = r + s).
    let entry = CORPUS
        .iter()
        .find(|e| e.0 == "dead_and_double_stores")
        .unwrap();
    run_lockstep(entry, &["cse"]);
}

#[test]
fn nbdirect_converts_only_provably_unobservable_latches() {
    let schedules_left = |name: &str| {
        let entry = CORPUS.iter().find(|e| e.0 == name).unwrap();
        let design = synergy_vlog::compile(entry.1, "M").unwrap();
        let mut prog = synergy_codegen::compile(&design).unwrap();
        optimize_with_passes(&mut prog, &["nbdirect"]);
        prog.always
            .iter()
            .flat_map(|a| a.body.iter())
            .filter(|op| matches!(op, synergy_codegen::Op::NbSchedule(_)))
            .count()
    };
    // Both latches in the single-block design convert.
    assert_eq!(schedules_left("nb_direct_candidate"), 0);
    // p is observed cross-block and must keep its latch; q converts.
    assert_eq!(schedules_left("nb_cross_block_observer"), 1);
    // The read-after-schedule latch must survive: the body reads `a + b`
    // after `a <= ...`, so a's latch delay is observable. b's schedule is
    // the body's last op with no other observer, so it still converts.
    assert_eq!(schedules_left("nb_latch_boundary"), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn any_pass_subset_is_snapshot_identical_to_o0(
        mask in 0u16..1024u16,
        idx in 0usize..CORPUS.len(),
    ) {
        let passes: Vec<&str> = PASS_NAMES
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &n)| n)
            .collect();
        run_lockstep(&CORPUS[idx], &passes);
    }
}
