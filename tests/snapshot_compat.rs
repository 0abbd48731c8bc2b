//! The CI `snapshot-compat` gate: wire-format compatibility against the
//! committed golden checkpoints, plus the live-migration ⇄ wire-format
//! differential the ISSUE's acceptance criteria name.
//!
//! The goldens under `tests/golden/` are durable checkpoints of every
//! Table-1 workload on the compiled engine, captured by the shared recipe in
//! `synergy_workloads::golden` (regenerate deliberately with
//! `cargo run -p synergy-workloads --example showseed -- golden
//! tests/golden`). Restoring them here — from bytes produced by an *older
//! build* — and comparing against a freshly fast-forwarded run catches any
//! drift in the wire format, the engines, or the workloads. A wire-format
//! version bump fails this gate with a typed `UnknownVersion` error until
//! the goldens are regenerated. The `*_stack.ckpt` files beside them are
//! legacy fixtures whose reserved byte still carries an older encoder's
//! stack-tier tag; they must keep restoring onto the compiled engine.

use synergy::hv::{HvError, SchedPolicy};
use synergy::snapshot::{crc32, decode_frame_of, SnapshotError, KIND_FLEET, VERSION};
use synergy::workloads::golden::{
    golden_file_name, golden_matrix, golden_runtime, GOLDEN_RESUME_TICKS,
};
use synergy::{
    CheckpointError, Cluster, Device, DomainId, EnginePolicy, ExecMode, Hypervisor, Runtime, Style,
};

fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn golden_bytes(name: &str) -> Vec<u8> {
    let path = golden_dir().join(name);
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {:?} ({}); regenerate with \
             `cargo run -p synergy-workloads --example showseed -- golden tests/golden`",
            path, e
        )
    })
}

/// The legacy fixture for a workload: its golden as written by an encoder
/// that still tagged the stack tier in the runtime frame's reserved byte.
fn legacy_golden_bytes(bench: &synergy::Benchmark) -> Vec<u8> {
    golden_bytes(&format!("{}_stack.ckpt", bench.name))
}

/// Recomputes a frame's CRC trailer after a deliberate payload edit, so the
/// decoder's payload checks — not the checksum — fire.
fn reseal(frame: &mut [u8]) {
    let crc_at = frame.len() - 4;
    let crc = crc32(&frame[..crc_at]);
    frame[crc_at..].copy_from_slice(&crc.to_le_bytes());
}

/// Every committed golden restores, and the resumed run is bit-identical to
/// a fresh run fast-forwarded to the same tick.
#[test]
fn goldens_restore_bit_identically_to_fresh_runs() {
    for bench in golden_matrix() {
        let bytes = golden_bytes(&golden_file_name(&bench));
        let mut restored = Runtime::restore_checkpoint(&bytes).unwrap_or_else(|e| {
            panic!(
                "golden {} no longer decodes: {}; a deliberate format bump must \
                 regenerate the goldens",
                bench.name, e
            )
        });
        assert_eq!(restored.mode(), ExecMode::Compiled);

        // The uninterrupted reference: the exact golden recipe, never
        // serialized, fast-forwarded to the same tick.
        let mut fresh = golden_runtime(&bench).unwrap();
        assert_eq!(restored.ticks(), fresh.ticks());
        assert_eq!(
            restored.peek_state(),
            fresh.peek_state(),
            "{}: restored state differs at the capture tick",
            bench.name
        );

        restored.run_ticks(GOLDEN_RESUME_TICKS).unwrap();
        fresh.run_ticks(GOLDEN_RESUME_TICKS).unwrap();
        assert_eq!(
            restored.peek_state(),
            fresh.peek_state(),
            "{}: resumed run diverges from the fast-forwarded fresh run",
            bench.name
        );
        assert_eq!(restored.now_ns(), fresh.now_ns());
        assert_eq!(
            restored.env.output_text(),
            fresh.env.output_text(),
            "{}: output diverges",
            bench.name
        );
        assert_eq!(
            restored.get_bits(&bench.metric_var).unwrap(),
            fresh.get_bits(&bench.metric_var).unwrap(),
        );
    }
}

/// The legacy stack-tagged goldens restore onto the compiled engine and
/// resume exactly like the matching regalloc-tagged goldens; re-encoding
/// one writes the regalloc golden's bytes.
#[test]
fn legacy_stack_tagged_goldens_restore_onto_the_compiled_engine() {
    for bench in golden_matrix() {
        let current = golden_bytes(&golden_file_name(&bench));
        let legacy = legacy_golden_bytes(&bench);
        let mut old = Runtime::restore_checkpoint(&legacy).unwrap();
        let mut new = Runtime::restore_checkpoint(&current).unwrap();
        assert_eq!(old.mode(), ExecMode::Compiled);
        assert_eq!(old.save_checkpoint(), current, "{}", bench.name);

        old.run_ticks(GOLDEN_RESUME_TICKS).unwrap();
        new.run_ticks(GOLDEN_RESUME_TICKS).unwrap();
        assert_eq!(old.peek_state(), new.peek_state(), "{}", bench.name);
        assert_eq!(old.now_ns(), new.now_ns(), "{}", bench.name);
        assert_eq!(
            old.env.output_text(),
            new.env.output_text(),
            "{}",
            bench.name
        );
    }
}

/// The gate demonstrably fails on a corrupted golden — with a typed error,
/// not a panic — and on a version bump.
#[test]
fn corrupted_and_version_bumped_goldens_are_rejected() {
    let bench = golden_matrix().remove(0);
    let bytes = golden_bytes(&golden_file_name(&bench));

    // Deliberate corruption: flip one payload bit.
    let mut corrupt = bytes.clone();
    corrupt[bytes.len() / 2] ^= 0x01;
    assert!(
        matches!(
            Runtime::restore_checkpoint(&corrupt),
            Err(CheckpointError::Decode(SnapshotError::Corrupt { .. }))
        ),
        "a corrupted golden must fail the gate with a typed CRC error"
    );

    // Truncation at several boundaries.
    for len in [0, 8, 16, bytes.len() - 1] {
        assert!(matches!(
            Runtime::restore_checkpoint(&bytes[..len]),
            Err(CheckpointError::Decode(
                SnapshotError::Truncated { .. } | SnapshotError::Corrupt { .. }
            ))
        ));
    }

    // A future format version is rejected by name, which is what forces a
    // deliberate golden regeneration after a bump. (Re-seal the CRC so the
    // version check, not the checksum, fires.)
    let mut future = bytes.clone();
    future[4..8].copy_from_slice(&(VERSION + 1).to_le_bytes());
    reseal(&mut future);
    assert!(matches!(
        Runtime::restore_checkpoint(&future),
        Err(CheckpointError::Decode(SnapshotError::UnknownVersion(v))) if v == VERSION + 1
    ));
}

/// The runtime frame's reserved byte accepts only the two tags older
/// encoders wrote; anything else fails typed. The legacy golden differs
/// from the current one first at exactly that byte.
#[test]
fn out_of_range_runtime_tier_tags_are_rejected() {
    let bench = golden_matrix().remove(0);
    let current = golden_bytes(&golden_file_name(&bench));
    let legacy = legacy_golden_bytes(&bench);
    let at = current
        .iter()
        .zip(&legacy)
        .position(|(a, b)| a != b)
        .expect("the goldens differ in the reserved byte");
    assert_eq!((legacy[at], current[at]), (0, 1));

    let mut bad = current.clone();
    bad[at] = 2;
    reseal(&mut bad);
    assert_eq!(
        Runtime::restore_checkpoint(&bad).err(),
        Some(CheckpointError::Decode(SnapshotError::Malformed(
            "unknown tier tag 2".into()
        )))
    );
}

/// The fleet frame's reserved byte is written as 0 and accepts the three
/// tags older encoders wrote (unset, stack, regalloc); anything else fails
/// typed.
#[test]
fn fleet_tier_tags_decode_legacy_values_and_reject_the_rest() {
    let src = "module Counter(input wire clock, output wire [31:0] out);
                   reg [31:0] count = 0;
                   always @(posedge clock) count <= count + 1;
                   assign out = count;
               endmodule";
    let mut hv = Hypervisor::new(Device::f1());
    hv.set_engine_policy(EnginePolicy::Auto);
    let rt = Runtime::new("counter", src, "Counter", "clock").unwrap();
    let app = hv.connect(rt, DomainId(1), false);
    hv.run_round(0.0002).unwrap();
    let bytes = hv.checkpoint_fleet();

    // Payload: source device name (`u32` length + bytes), policy, reserved.
    let payload_at = bytes.len() - 4 - decode_frame_of(&bytes, KIND_FLEET).unwrap().len();
    let at = payload_at + 4 + hv.device().name.len() + 1;
    assert_eq!(bytes[at], 0);

    for tag in 0..=3u8 {
        let mut frame = bytes.clone();
        frame[at] = tag;
        reseal(&mut frame);
        let mut restored = Hypervisor::new(Device::f1());
        let result = restored.restore_fleet(&frame);
        if tag <= 2 {
            result.unwrap();
            assert_eq!(
                restored.app(app).unwrap().peek_state(),
                hv.app(app).unwrap().peek_state()
            );
            assert_eq!(
                restored.checkpoint_fleet(),
                bytes,
                "tag {} re-encodes as 0",
                tag
            );
        } else {
            assert!(matches!(
                result,
                Err(HvError::Checkpoint(CheckpointError::Decode(SnapshotError::Malformed(m))))
                    if m == "unknown tier tag 3"
            ));
        }
    }
}

/// `Cluster::live_migrate` (through the wire format) is bit-identical to
/// in-process migration on every Table-1 workload — the tenant rides the
/// compiled engine on the source node and lands on hardware on the target
/// node, exactly like `migrate`.
#[test]
fn live_migrate_matches_in_process_migration_on_all_workloads_and_tiers() {
    for bench in golden_matrix() {
        let build = || {
            let mut cluster = Cluster::new();
            cluster.set_engine_policy(EnginePolicy::Auto);
            // Parallel rounds on the source node: checkpoint/migration
            // correctness must be independent of the scheduling policy.
            cluster.set_sched_policy(SchedPolicy::Parallel { workers: 2 });
            let src = cluster.add_node(Device::de10());
            let dst = cluster.add_node(Device::f1());
            let mut rt =
                Runtime::new(bench.name.clone(), &bench.source, &bench.top, &bench.clock).unwrap();
            if let Some(path) = &bench.input_path {
                rt.add_file(
                    path.clone(),
                    synergy::workloads::input_data(&bench.name, 2048),
                );
            }
            rt.run_ticks(2).unwrap();
            let io_bound = bench.style == Style::Streaming;
            let app = cluster.node_mut(src).connect(rt, DomainId(1), io_bound);
            assert_eq!(
                cluster.node(src).app(app).unwrap().mode(),
                ExecMode::Compiled,
                "{}: tenant must ride the compiled engine before migration",
                bench.name
            );
            cluster.node_mut(src).run_round(0.0002).unwrap();
            (cluster, src, dst, app, io_bound)
        };

        let (mut in_proc, src_a, dst_a, app_a, io_bound) = build();
        let (mut wire, src_b, dst_b, app_b, _) = build();
        let (new_a, out_a) = in_proc
            .migrate(src_a, app_a, dst_a, DomainId(2), io_bound)
            .unwrap();
        let (new_b, out_b) = wire
            .live_migrate(src_b, app_b, dst_b, DomainId(2), io_bound)
            .unwrap();
        assert_eq!(out_a, out_b, "{}", bench.name);
        assert_eq!(
            in_proc.node(dst_a).app(new_a).unwrap().peek_state(),
            wire.node(dst_b).app(new_b).unwrap().peek_state(),
            "{}: post-migration snapshots differ",
            bench.name
        );

        // And the runs stay in lockstep on the target node.
        let stats_a = in_proc.node_mut(dst_a).run_round(0.0002).unwrap();
        let stats_b = wire.node_mut(dst_b).run_round(0.0002).unwrap();
        assert_eq!(stats_a, stats_b, "{}", bench.name);
        assert_eq!(
            in_proc.node(dst_a).app(new_a).unwrap().peek_state(),
            wire.node(dst_b).app(new_b).unwrap().peek_state(),
            "{}: post-round snapshots differ",
            bench.name
        );
        assert_eq!(
            in_proc.node(dst_a).app(new_a).unwrap().now_ns(),
            wire.node(dst_b).app(new_b).unwrap().now_ns(),
        );
    }
}

/// A fleet checkpoint written to disk restores in a "new process"
/// (byte-for-byte through the filesystem) with the scheduler state intact —
/// the crash-recovery flow.
#[test]
fn fleet_checkpoints_survive_the_filesystem() {
    use synergy::SynergyVm;

    let mut vm = SynergyVm::new();
    vm.set_stream_len(1024);
    vm.set_engine_policy(EnginePolicy::Auto);
    let node = vm.add_device(Device::f1());
    let a = vm.launch_benchmark(node, "bitcoin", false).unwrap();
    let b = vm.launch_benchmark(node, "regex", false).unwrap();
    vm.deploy(node, a).unwrap();
    vm.run_round(node, 0.0002).unwrap();

    let dir = std::env::temp_dir().join("synergy_fleet_ckpt_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fleet.ckpt");
    std::fs::write(&path, vm.cluster().node(node).checkpoint_fleet()).unwrap();

    let bytes = std::fs::read(&path).unwrap();
    let mut recovered = Hypervisor::new(Device::f1());
    recovered.restore_fleet(&bytes).unwrap();
    for app in [a, b] {
        assert_eq!(
            recovered.app(app).unwrap().peek_state(),
            vm.cluster().node(node).app(app).unwrap().peek_state(),
        );
    }
    let s1 = vm.run_round(node, 0.0002).unwrap();
    let s2 = recovered.run_round(0.0002).unwrap();
    assert_eq!(s1, s2, "post-recovery rounds are bit-identical");
    std::fs::remove_file(&path).ok();
}
