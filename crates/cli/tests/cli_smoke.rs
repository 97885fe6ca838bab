#![allow(clippy::unwrap_used)] // test code: panicking on malformed fixtures is the desired failure mode

//! End-to-end tests of the `enprop` binary: run real subcommands and
//! check the regenerated numbers in the output.

use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_enprop"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn table7_prints_paper_numbers() {
    let (stdout, _, ok) = run(&["table7"]);
    assert!(ok);
    // The EP row of Table 7, exactly as the paper prints the DPRs.
    assert!(stdout.contains("25.97"), "{stdout}");
    assert!(stdout.contains("34.57"));
    assert!(stdout.contains("41.19"), "RSA K10 DPR missing");
}

#[test]
fn table7_csv_is_machine_readable() {
    let (stdout, _, ok) = run(&["table7", "--csv"]);
    assert!(ok);
    let lines: Vec<&str> = stdout.lines().filter(|l| l.contains(',')).collect();
    // Header + six workload rows.
    assert_eq!(lines.len(), 7, "{stdout}");
    assert!(lines[1].starts_with("EP,25.97,34.57"));
}

#[test]
fn footnote4_reports_36380() {
    let (stdout, _, ok) = run(&["footnote4"]);
    assert!(ok);
    assert!(
        stdout.contains("36380") || stdout.contains("36,380"),
        "{stdout}"
    );
}

#[test]
fn fig9_draws_all_five_mixes() {
    let (stdout, _, ok) = run(&["fig9"]);
    assert!(ok);
    for label in [
        "32 A9 : 12 K10",
        "25 A9 : 10 K10",
        "25 A9 : 8 K10",
        "25 A9 : 7 K10",
        "25 A9 : 5 K10",
    ] {
        assert!(stdout.contains(label), "missing {label}");
    }
    assert!(stdout.contains("Ideal"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let (_, stderr, ok) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
    assert!(stderr.contains("USAGE"));
}

#[test]
fn unknown_workload_fails_cleanly() {
    let (_, stderr, ok) = run(&["fig5", "--workload", "doom"]);
    assert!(!ok);
    assert!(stderr.contains("unknown workload"));
}

#[test]
fn help_lists_every_paper_artifact() {
    let (stdout, _, ok) = run(&["help"]);
    assert!(ok);
    for cmd in [
        "table4",
        "table5",
        "table6",
        "table7",
        "table8",
        "fig2",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "footnote4",
        "pareto",
        "sweet",
        "search",
        "dynamic",
        "ablation",
        "strategies",
        "kernels",
        "power",
        "trace",
        "export",
        "pg",
    ] {
        assert!(stdout.contains(cmd), "usage missing {cmd}");
    }
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("enprop-cli-smoke");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(format!("{}-{}", std::process::id(), name))
}

#[test]
fn help_lists_telemetry_flags() {
    let (stdout, _, ok) = run(&["help"]);
    assert!(ok);
    for flag in [
        "--trace-out",
        "--metrics-out",
        "--profile",
        "--verbose",
        "--quiet",
    ] {
        assert!(stdout.contains(flag), "usage missing {flag}");
    }
}

#[test]
fn telemetry_flags_leave_stdout_untouched() {
    let trace = tmp_path("t4-trace.json");
    let metrics = tmp_path("t4-metrics.json");
    let (plain, _, ok) = run(&["table4", "--samples", "2"]);
    assert!(ok);
    let (traced, _, ok) = run(&[
        "table4",
        "--samples",
        "2",
        "--trace-out",
        trace.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert!(ok);
    assert_eq!(
        plain, traced,
        "exports must not perturb the experiment output"
    );
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&metrics);
}

#[test]
fn trace_out_writes_a_chrome_trace_and_metrics_carry_the_schema() {
    let trace = tmp_path("fig11-trace.json");
    let metrics = tmp_path("fig11-metrics.json");
    let (_, _, ok) = run(&[
        "fig11",
        "--trace-out",
        trace.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert!(ok);
    let t = std::fs::read_to_string(&trace).expect("trace written");
    assert!(t.starts_with("{\"traceEvents\":["), "{t}");
    assert!(t.contains("\"ph\":\"X\""), "no complete span events");
    assert!(t.contains("dispatch.queue_depth"), "no queue-depth series");
    assert!(t.contains("node.dvfs_transitions"), "no DVFS series");
    let m = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(m.contains("enprop-obs-metrics-v1"), "{m}");
    assert!(m.contains("\"dispatch.retries\""), "no retry counter");
    assert!(m.contains("\"job\""), "no job span stats");
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&metrics);
}

#[test]
fn golden_jsonl_trace_is_byte_identical_across_runs() {
    let a = tmp_path("golden-a.jsonl");
    let b = tmp_path("golden-b.jsonl");
    for p in [&a, &b] {
        let (_, _, ok) = run(&[
            "table4",
            "--samples",
            "2",
            "--trace-out",
            p.to_str().unwrap(),
        ]);
        assert!(ok);
    }
    let body_a = std::fs::read(&a).expect("first run written");
    let body_b = std::fs::read(&b).expect("second run written");
    assert!(!body_a.is_empty());
    assert_eq!(body_a, body_b, "same seed + command must trace identically");
    let first = String::from_utf8(body_a).unwrap();
    assert!(
        first.lines().next().unwrap().starts_with("{\"t\":"),
        "{first}"
    );
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
}

#[test]
fn quiet_strips_notes_and_keeps_the_data() {
    let (plain, _, ok) = run(&["table7"]);
    assert!(ok);
    let (quiet, _, ok) = run(&["table7", "--quiet"]);
    assert!(ok);
    assert!(plain.contains("Note ("));
    assert!(!quiet.contains("Note ("));
    assert!(quiet.contains("25.97"), "data rows must survive --quiet");
}

#[test]
fn profile_appends_a_bench_record() {
    let dir = std::env::temp_dir().join(format!("enprop-profile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_enprop"))
        .args(["table5", "--profile"])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let body = std::fs::read_to_string(dir.join("BENCH_obs.json")).expect("bench file");
    assert!(
        body.lines().next().unwrap().contains("\"cmd\":\"table5\""),
        "{body}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn export_emits_the_full_space() {
    let (stdout, _, ok) = run(&["export", "--a9", "1", "--k10", "1"]);
    assert!(ok);
    // 1·4·5 = 20 A9 tuples, 1·6·3 = 18 K10 tuples → 21·19 − 1 = 398 rows.
    let data_rows = stdout.lines().skip(1).filter(|l| !l.is_empty()).count();
    assert_eq!(data_rows, 398, "{stdout}");
    assert!(stdout
        .lines()
        .next()
        .unwrap()
        .starts_with("workload,a9,k10"));
    // The frontier flag must be present on at least one row.
    assert!(stdout.contains(",true"));
}

/// FNV-1a (64-bit) over a command's stdout or an exported file: pins
/// every byte of a long output without committing the text.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn pareto_stdout_is_pinned_for_every_workload() {
    for (workload, digest) in [
        ("EP", 0x0111_b0fd_8623_65ca_u64),
        ("memcached", 0xa3d8_cc4e_1c71_389a),
        ("x264", 0x44ac_fc18_093c_52e8),
        ("blackscholes", 0xd9e8_f6fe_416c_d2f9),
        ("Julius", 0xb472_5f7c_8dbf_8576),
        ("RSA-2048", 0xd9b8_cdd8_c17e_4e2b),
    ] {
        let (stdout, stderr, ok) =
            run(&["pareto", "--a9", "8", "--k10", "4", "--workload", workload]);
        assert!(ok, "{stderr}");
        assert_eq!(fnv1a(&stdout), digest, "{workload}:\n{stdout}");
    }
}

#[test]
fn faults_stdout_is_pinned_through_the_dispatcher_section() {
    for (args, digest) in [
        (&["faults"][..], 0xb749_8e5e_1c40_10f6_u64),
        (
            &["faults", "--workload", "x264", "--utilization", "0.9"],
            0x189e_cf92_ac8f_0699,
        ),
    ] {
        let (stdout, stderr, ok) = run(args);
        assert!(ok, "{stderr}");
        assert!(stdout.contains("\n  dispatcher queue at u = "), "{stdout}");
        assert_eq!(fnv1a(&stdout), digest, "{args:?}:\n{stdout}");
    }
}

#[test]
fn faults_rejects_an_unstable_utilization_before_any_output() {
    // Each row: a command line whose value used to reach an assert, a
    // derived-value error or a silently disabled feature, and the flag
    // its error must name.
    for (args, flag) in [
        (&["faults", "--utilization", "1.5"][..], "utilization"),
        (&["faults", "--utilization", "1.5", "--csv"], "utilization"),
        (&["table4", "--samples", "0"], "--samples"),
        (&["all", "--samples", "0"], "--samples"),
        (&["obs", "power", "--utilization", "1.5"], "--utilization"),
        (&["trace", "--utilization", "-0.5"], "--utilization"),
        (&["serve", "--ops-per-request", "0"], "--ops-per-request"),
        (&["serve", "--live-report", "0"], "--live-report"),
        (&["chaos", "--plans", "0"], "--plans"),
        (&["serve", "--requests", "0"], "--requests"),
        (
            &["serve", "--kill-after-events", "0"],
            "--kill-after-events",
        ),
        (&["serve", "--utilization", "0"], "--utilization"),
        (&["serve", "--utilization", "-1"], "--utilization"),
        (&["serve", "--utilization", "nan"], "--utilization"),
        (&["serve", "--rate", "0"], "--rate"),
        (&["sweet", "--deadline", "nan"], "--deadline"),
        (&["sweet", "--deadline", "-1"], "--deadline"),
        (&["sweet", "--deadline", "0"], "--deadline"),
        (&["search", "--deadline", "-1"], "--deadline"),
        (&["space", "--max-configs", "0"], "--max-configs"),
        (&["space", "--types", "a9:2,a9:2"], "--types"),
        (&["space", "--types", "a9:2,k10:1,A9:3"], "node type A9"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_enprop"))
            .args(args)
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}:\n{stdout}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
}

/// A run killed before its first obs window closes has written no
/// checkpoint, so it must not print a resume command for one; a run
/// killed after that does.
#[test]
fn a_killed_run_offers_to_resume_only_from_a_written_checkpoint() {
    let path = tmp_path("killed-early.jsonl");
    let _ = std::fs::remove_file(&path);
    let kill = |events: &str| {
        run(&[
            "serve",
            "--requests",
            "2000",
            "--kill-after-events",
            events,
            "--checkpoint-out",
            path.to_str().unwrap(),
        ])
    };
    let (stdout, stderr, ok) = kill("100");
    assert!(ok, "{stderr}");
    assert!(!path.exists(), "{} was written", path.display());
    assert!(!stdout.contains("resume with"), "{stdout}");
    assert!(stdout.contains("no checkpoint written"), "{stdout}");
    let (stdout, stderr, ok) = kill("3000");
    assert!(ok, "{stderr}");
    assert!(path.exists(), "{} was not written", path.display());
    assert!(stdout.contains("resume with"), "{stdout}");
    let _ = std::fs::remove_file(&path);
}

/// Run `enprop serve` with about 180 KB of live report plus `extra`,
/// read one line of its stdout and close the pipe: more than a pipe
/// holds, so the command is still writing when its reader goes away.
/// Returns the line, the exit status and stderr.
fn serve_into_a_pipe_closed_after_one_line(extra: &[&str]) -> (String, Option<i32>, String) {
    use std::io::BufRead;
    let mut child = Command::new(env!("CARGO_BIN_EXE_enprop"))
        .args(["serve", "--requests", "20000", "--live-report", "0.05"])
        .args(extra)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut first = String::new();
    std::io::BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    let out = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (first, out.status.code(), stderr)
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    let (first, code, stderr) = serve_into_a_pipe_closed_after_one_line(&[]);
    assert!(first.starts_with("window"), "{first}");
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}

#[test]
fn a_closed_stdout_fails_a_command_with_a_file_still_to_write() {
    let path = tmp_path("closed-stdout.jsonl");
    let _ = std::fs::remove_file(&path);
    let (first, code, stderr) =
        serve_into_a_pipe_closed_after_one_line(&["--trace-out", path.to_str().unwrap()]);
    assert!(first.starts_with("window"), "{first}");
    assert_eq!(code, Some(2), "{stderr}");
    assert_eq!(
        stderr,
        "error: stdout closed before the command finished; not written: --trace-out\n"
    );
    assert!(!path.exists(), "{} was written", path.display());
}

#[test]
fn fig11_jsonl_trace_is_pinned() {
    let path = tmp_path("fig11-pin.jsonl");
    let (_, stderr, ok) = run(&["fig11", "--trace-out", path.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    let body = std::fs::read_to_string(&path).expect("trace written");
    let _ = std::fs::remove_file(&path);
    // The queue probe traces 512 jobs: a depth gauge and a span each.
    let dispatcher = body
        .lines()
        .filter(|l| l.contains("\"track\":\"dispatcher\""))
        .count();
    assert_eq!(dispatcher, 1536);
    assert_eq!(fnv1a(&body), 0x4cde_7020_8de0_9df0);
}

#[test]
fn export_stdout_is_pinned() {
    let (stdout, stderr, ok) = run(&["export", "--a9", "4", "--k10", "2"]);
    assert!(ok, "{stderr}");
    assert_eq!(fnv1a(&stdout), 0x9097_eb78_0829_5535);
}

#[test]
fn space_stdout_is_pinned() {
    // The prune count in the summary line depends on the shard layout,
    // so the thread count is part of the command line. `--stream` is an
    // old flag that the parser now ignores.
    let pinned = ["space", "--types", "a9:8,k10:4", "--threads", "2"];
    let with_stream = [
        "space",
        "--types",
        "a9:8,k10:4",
        "--stream",
        "--threads",
        "2",
    ];
    for args in [&pinned[..], &with_stream] {
        let (stdout, stderr, ok) = run(args);
        assert!(ok, "{stderr}");
        assert_eq!(fnv1a(&stdout), 0x882f_1cd8_8650_3766, "{args:?}:\n{stdout}");
    }
}

#[test]
fn space_streams_past_two_million_configurations() {
    let (stdout, stderr, ok) = run(&[
        "space",
        "--types",
        "a9:10,k10:10,pi4:16,opi5:16",
        "--max-configs",
        "3000000",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("\nConfiguration "), "{stdout}");
    let summary = "\nfrontier: 24 of 3000000 configurations (";
    assert!(stdout.contains(summary), "{stdout}");
}

#[test]
fn space_cap_holds_whatever_the_per_type_bound() {
    // The first ten configurations are the same one-node A9 points
    // whatever `max_nodes` is, so a huge bound must neither change the
    // frontier nor size anything by it.
    let frontier = |types: &str| {
        let (stdout, stderr, ok) = run(&["space", "--types", types, "--max-configs", "10"]);
        assert!(ok, "{types}: {stderr}");
        let at = stdout.find("\nConfiguration ").expect("frontier table");
        stdout[at..].to_string()
    };
    let small = frontier("a9:1");
    assert!(
        small.ends_with("\nfrontier: 1 of 10 configurations (2 pruned before evaluation)\n"),
        "{small}"
    );
    for types in ["a9:300000000", "a9:4294967295"] {
        assert_eq!(frontier(types), small, "{types}");
    }
}

#[test]
fn sweet_stdout_is_pinned_on_the_default_space() {
    for (workload, deadline, label, digest) in [
        ("EP", "0.05", "32 A9 : 2 K10", 0xb6da_5231_1482_4c7d_u64),
        (
            "blackscholes",
            "0.5",
            "32 A9 : 5 K10",
            0x3375_0bd1_129c_a1d1,
        ),
        (
            "blackscholes",
            "1.0",
            "32 A9 : 1 K10",
            0x16e0_03a6_008c_78a8,
        ),
        ("Julius", "0.05", "32 A9 : 10 K10", 0x26e1_8ae5_54ef_108d),
        ("Julius", "0.1", "32 A9 : 3 K10", 0xbf39_7fdb_d629_03f0),
    ] {
        let (stdout, stderr, ok) = run(&["sweet", "--workload", workload, "--deadline", deadline]);
        assert!(ok, "{stderr}");
        assert!(
            stdout.contains(&format!("configuration : {label}\n")),
            "{stdout}"
        );
        assert_eq!(
            fnv1a(&stdout),
            digest,
            "{workload} @ {deadline} s:\n{stdout}"
        );
    }
}

#[test]
fn replay_csv_reports_every_counter_once() {
    let trace = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/replay_trace.jsonl"
    );
    let (stdout, stderr, ok) = run(&["replay", "--trace", trace, "--csv"]);
    assert!(ok, "{stderr}");
    for (name, _) in enprop_serve::ServeReport::default().counters() {
        let rows = stdout
            .lines()
            .filter(|l| l.split(',').next() == Some(name))
            .count();
        assert_eq!(
            rows, 1,
            "counter {name} must be exactly one metric row:\n{stdout}"
        );
    }
    assert!(stdout.trim_end().ends_with("conservation: OK"), "{stdout}");
}

#[test]
fn serve_stdout_is_pinned() {
    let (stdout, stderr, ok) = run(&["serve", "--requests", "20000", "--seed", "3"]);
    assert!(ok, "{stderr}");
    assert_eq!(fnv1a(&stdout), 0x91a7_8314_5f00_9238, "{stdout}");
}

/// The chaos sweep's stdout, pinned with and without the correlated
/// failure-domain plans layered over the per-node ones.
#[test]
fn chaos_sweep_stdout_is_pinned() {
    for (domains, digest) in [
        (false, 0xc4c7_3cd4_9889_bb47_u64),
        (true, 0x94ea_42ab_b004_8941),
    ] {
        let mut args = vec!["chaos", "--requests", "2000", "--plans", "4"];
        if domains {
            args.push("--domains");
        }
        let (stdout, stderr, ok) = run(&args);
        assert!(ok, "{stderr}");
        assert_eq!(fnv1a(&stdout), digest, "--domains {domains}:\n{stdout}");
    }
}

/// The chaos replay `scripts/verify.sh` runs, pinned in all three
/// outputs: the report, the JSONL trace and the last checkpoint.
#[test]
fn chaos_replay_outputs_are_pinned() {
    let trace = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/replay_trace.jsonl"
    );
    let jsonl = tmp_path("replay-pin.jsonl");
    let ckpt = tmp_path("replay-pin-ckpt.jsonl");
    let (stdout, stderr, ok) = run(&[
        "replay",
        "--trace",
        trace,
        "--mtbf",
        "6",
        "--stall",
        "2",
        "--slowdown",
        "3",
        "--repair",
        "5",
        "--seed",
        "7",
        "--trace-out",
        jsonl.to_str().unwrap(),
        "--checkpoint-out",
        ckpt.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let events = std::fs::read_to_string(&jsonl).expect("trace written");
    let snapshot = std::fs::read_to_string(&ckpt).expect("checkpoint written");
    let _ = std::fs::remove_file(&jsonl);
    let _ = std::fs::remove_file(&ckpt);
    assert_eq!(fnv1a(&stdout), 0xbbb3_cdc8_9a15_0319, "{stdout}");
    assert_eq!(fnv1a(&events), 0x6725_f9b7_3b15_7972);
    assert_eq!(fnv1a(&snapshot), 0xf04a_57dc_5add_50ae);
}

/// Serving through PDU losses that take whole node groups dark, pinned in
/// stdout (with the live window report) and the JSONL trace: the one
/// serving run pinned under correlated domain faults.
#[test]
fn pdu_loss_serving_outputs_are_pinned() {
    let jsonl = tmp_path("pdu-pin.jsonl");
    let (stdout, stderr, ok) = run(&[
        "serve",
        "--requests",
        "20000",
        "--seed",
        "1",
        "--a9",
        "2",
        "--k10",
        "2",
        "--pdu-mtbf",
        "15",
        "--nodes-per-rack",
        "2",
        "--racks-per-pdu",
        "1",
        "--utilization",
        "0.8",
        "--repair",
        "10",
        "--live-report",
        "1.0",
        "--trace-out",
        jsonl.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let events = std::fs::read_to_string(&jsonl).expect("trace written");
    let _ = std::fs::remove_file(&jsonl);
    assert_eq!(fnv1a(&stdout), 0x4d7b_2245_7e24_d488, "{stdout}");
    assert_eq!(fnv1a(&events), 0xe5e1_c3f8_5fe8_65c9);
}
