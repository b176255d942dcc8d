//! Shared command-line handling for the figure harnesses.
//!
//! Every harness (`fig1_msgrate_8b`, `fig8_latency_window_8b`,
//! `fig10_octotiger_expanse`, `fabric_sweep`) accepts the same
//! observability flags, parsed here exactly once — unknown flags are a
//! hard error, never silently ignored:
//!
//! * `--trace FILE` — combined Chrome-trace JSON of the nominated run;
//! * `--breakdown` — per-stage latency breakdown + contention report;
//! * `--json FILE` — machine-readable reports;
//! * `--profile` — per-core virtual-time state table + sparklines;
//! * `--folded FILE` — folded stacks for `inferno` / `flamegraph.pl`;
//! * `--critpath` — causal critical-path report (highlighted in
//!   `--trace` output);
//! * `--whatif KNOBS` — predicted-vs-measured speedup sweep;
//! * `--timeline FILE` — windowed timeline document (JSON) of the
//!   nominated run, plus `FILE.om` (OpenMetrics-style text exposition)
//!   and `FILE.dumpN.json` for any flight-recorder dumps;
//! * `--slo` — install the default latency-objective burn-rate rules and
//!   print any alerts;
//! * `--window-us N` — timeline window width (default 100 µs);
//! * `--record FILE` — canonical [`telemetry::RunRecord`] JSON of the
//!   nominated run (the cross-run diffing artifact `perf_diff`
//!   consumes);
//! * `--out DIR` — route every artifact into `DIR` under canonical
//!   names (`trace.json`, `report.json`, `folded.txt`, `timeline.json`,
//!   `record.json`); per-flag paths still work and win over `--out`;
//! * `--knobs KNOBS` — dial cost-model knobs *for the instrumented run
//!   itself* (as opposed to `--whatif`, which predicts and measures
//!   speedups): a knob-dialed `--record` is how a "what changed"
//!   baseline comparison is produced;
//! * `--param K=V` — workload parameter overrides the harness consults
//!   (e.g. `--param window=8` on fig8); recorded in the run record.
//!
//! [`dispatch`] owns the shared "instrumented pass instead of the full
//! sweep" branching the binaries used to duplicate.

use std::rc::Rc;

use parcelport::Engine;
use simcore::shard::RunMode;
use telemetry::{SloRule, Telemetry, TimelineConfig};

/// Parsed observability flags.
#[derive(Debug, Default, Clone)]
pub struct TraceArgs {
    /// Chrome-trace output path (`--trace FILE`).
    pub trace: Option<String>,
    /// Print text breakdown + contention reports (`--breakdown`).
    pub breakdown: bool,
    /// Machine-readable report path (`--json FILE`).
    pub json: Option<String>,
    /// Print the per-core virtual-time profile (`--profile`).
    pub profile: bool,
    /// Folded-stack (flamegraph) output path (`--folded FILE`).
    pub folded: Option<String>,
    /// Print critical-path reports; highlight the path in `--trace`
    /// output (`--critpath`).
    pub critpath: bool,
    /// What-if knob sweep spec (`--whatif KNOBS`, `all` = default sweep).
    pub whatif: Option<String>,
    /// Windowed-timeline document path (`--timeline FILE`).
    pub timeline: Option<String>,
    /// Install the default SLO rules and print alerts (`--slo`).
    pub slo: bool,
    /// Timeline window width in µs (`--window-us N`).
    pub window_us: Option<u64>,
    /// RunRecord output path for the nominated run (`--record FILE`).
    pub record: Option<String>,
    /// Artifact directory with canonical file names (`--out DIR`).
    pub out: Option<String>,
    /// Cost-model knobs dialed for the instrumented run itself
    /// (`--knobs KNOBS`).
    pub knobs: Option<String>,
    /// Workload parameter overrides (`--param K=V`, repeatable).
    pub params: Vec<(String, String)>,
    /// Engine shards for the sharded (federated) world (`--shards N`).
    /// `None` keeps the legacy single-heap world — byte-identical to
    /// every pre-sharding artifact.
    pub shards: Option<usize>,
    /// Sharded-engine executor (`--run-mode seq|threaded`); `None`
    /// lets the engine pick (one worker per host CPU, at most one per
    /// shard). Implies the sharded world like `--shards`.
    pub run_mode: Option<String>,
}

fn usage(offender: &str) -> ! {
    eprintln!(
        "unknown argument {offender:?} \
         (supported: --trace FILE, --breakdown, --json FILE, --profile, \
         --folded FILE, --critpath, --whatif KNOBS, --timeline FILE, \
         --slo, --window-us N, --record FILE, --out DIR, --knobs KNOBS, \
         --param K=V, --shards N, --run-mode seq|threaded)"
    );
    std::process::exit(2);
}

impl TraceArgs {
    /// Parse the harness command line; exits with a usage message on an
    /// unknown argument. `--out DIR` is resolved here: the directory is
    /// created and unset path flags are filled with canonical names.
    pub fn parse() -> TraceArgs {
        let mut args = TraceArgs::parse_from(std::env::args().skip(1));
        if args.out.is_some() {
            std::fs::create_dir_all(args.out.as_deref().unwrap()).expect("create --out directory");
            args.resolve_out();
        }
        args
    }

    /// [`TraceArgs::parse`] over an explicit argument list.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> TraceArgs {
        let mut out = TraceArgs::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--trace" => out.trace = Some(it.next().expect("--trace needs a file path")),
                "--breakdown" => out.breakdown = true,
                "--json" => out.json = Some(it.next().expect("--json needs a file path")),
                "--profile" => out.profile = true,
                "--folded" => out.folded = Some(it.next().expect("--folded needs a file path")),
                "--critpath" => out.critpath = true,
                "--whatif" => out.whatif = Some(it.next().expect("--whatif needs a knob list")),
                "--timeline" => {
                    out.timeline = Some(it.next().expect("--timeline needs a file path"))
                }
                "--slo" => out.slo = true,
                "--window-us" => {
                    let v = it.next().expect("--window-us needs a width in microseconds");
                    out.window_us =
                        Some(v.parse().expect("--window-us width must be a positive integer"));
                }
                "--record" => out.record = Some(it.next().expect("--record needs a file path")),
                "--out" => out.out = Some(it.next().expect("--out needs a directory path")),
                "--knobs" => out.knobs = Some(it.next().expect("--knobs needs a knob list")),
                "--param" => {
                    let kv = it.next().expect("--param needs K=V");
                    let (k, v) = kv
                        .split_once('=')
                        .unwrap_or_else(|| panic!("--param expects K=V, got {kv:?}"));
                    out.params.push((k.to_string(), v.to_string()));
                }
                "--shards" => {
                    let v = it.next().expect("--shards needs a shard count");
                    let n: usize = v.parse().expect("--shards count must be a positive integer");
                    assert!(n >= 1, "--shards count must be >= 1");
                    out.shards = Some(n);
                }
                "--run-mode" => {
                    let v = it.next().expect("--run-mode needs seq or threaded");
                    if v != "seq" && v != "threaded" {
                        eprintln!("--run-mode must be \"seq\" or \"threaded\", got {v:?}");
                        std::process::exit(2);
                    }
                    out.run_mode = Some(v);
                }
                other => usage(other),
            }
        }
        out
    }

    /// Fill unset path flags from `--out DIR` with canonical names. The
    /// per-flag paths win when both are given; [`TraceArgs::parse`]
    /// calls this after creating the directory.
    pub fn resolve_out(&mut self) {
        let Some(dir) = self.out.clone() else { return };
        let fill = |slot: &mut Option<String>, name: &str| {
            if slot.is_none() {
                *slot = Some(format!("{dir}/{name}"));
            }
        };
        fill(&mut self.trace, "trace.json");
        fill(&mut self.json, "report.json");
        fill(&mut self.folded, "folded.txt");
        fill(&mut self.timeline, "timeline.json");
        fill(&mut self.record, "record.json");
    }

    /// A `--param K=V` override, if present.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// A numeric `--param` override, falling back to `default`; exits
    /// with a usage message when the value does not parse.
    pub fn param_usize(&self, key: &str, default: usize) -> usize {
        match self.param(key) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("--param {key}={v:?}: value must be a non-negative integer");
                std::process::exit(2);
            }),
        }
    }

    /// The engine the command line asks for. `--shards N` or
    /// `--run-mode` selects the federated world (`--run-mode` alone means
    /// one shard, since an executor choice only makes sense there);
    /// neither keeps the single heap.
    pub fn engine(&self) -> Engine {
        let mode = match self.run_mode.as_deref() {
            Some("seq") => Some(RunMode::Sequential),
            Some("threaded") => Some(RunMode::Threaded),
            _ => None,
        };
        match (self.shards, mode) {
            (None, None) => Engine::SingleHeap,
            (shards, mode) => Engine::Federated { shards: shards.unwrap_or(1), mode },
        }
    }

    /// The `engine:` banner line the figure harnesses print above their
    /// table on the federated world; `None` on the single heap.
    pub fn engine_banner(&self) -> Option<String> {
        let Engine::Federated { shards, .. } = self.engine() else { return None };
        let executor =
            self.run_mode.as_deref().map(|m| format!(", {m} executor")).unwrap_or_default();
        Some(format!("engine: sharded world, {shards} shard(s){executor}"))
    }

    /// Whether an instrumented pass was requested.
    pub fn active(&self) -> bool {
        self.trace.is_some()
            || self.breakdown
            || self.json.is_some()
            || self.profile
            || self.folded.is_some()
            || self.critpath
            || self.whatif.is_some()
            || self.timeline_active()
            || self.record.is_some()
    }

    /// Whether per-config reports (rather than just one Chrome trace)
    /// were requested — decides how many configs the pass covers.
    pub fn wants_reports(&self) -> bool {
        self.breakdown || self.json.is_some() || self.profile || self.folded.is_some()
    }

    /// Whether the windowed timeline was requested.
    pub fn timeline_active(&self) -> bool {
        self.timeline.is_some() || self.slo || self.window_us.is_some()
    }

    /// The timeline configuration implied by the flags; `None` when no
    /// timeline flag is present.
    pub fn timeline_config(&self) -> Option<TimelineConfig> {
        if !self.timeline_active() {
            return None;
        }
        let mut cfg = TimelineConfig::default();
        if let Some(us) = self.window_us {
            cfg.window_ns = us.max(1) * 1_000;
        }
        if self.slo {
            cfg.slos = default_slo_rules();
        }
        Some(cfg)
    }

    /// The parsed `--whatif` knob list; exits with a usage message on an
    /// unknown knob spec.
    pub fn whatif_knobs(&self) -> Option<Vec<crate::whatif::Knob>> {
        self.whatif.as_deref().map(|spec| parse_knob_list("--whatif", spec))
    }

    /// The parsed `--knobs` dial list (knobs applied to the instrumented
    /// run itself); exits with a usage message on an unknown knob spec.
    pub fn dial_knobs(&self) -> Option<Vec<crate::whatif::Knob>> {
        self.knobs.as_deref().map(|spec| parse_knob_list("--knobs", spec))
    }

    /// Names of the dialed `--knobs`, for run-record metadata.
    pub fn dial_knob_names(&self) -> Vec<String> {
        self.dial_knobs().unwrap_or_default().iter().map(|k| k.name()).collect()
    }

    /// Apply the `--knobs` dials to one run's models; returns whether
    /// anything was dialed.
    pub fn apply_dials(
        &self,
        cfg: &mut parcelport::PpConfig,
        cost: &mut simcore::CostModel,
        wire: &mut netsim::WireModel,
    ) -> bool {
        let Some(knobs) = self.dial_knobs() else { return false };
        for k in &knobs {
            k.apply(cfg, cost, wire);
        }
        !knobs.is_empty()
    }
}

/// Parse a comma-separated knob spec (`all` = the default sweep set);
/// exits with a usage message on an unknown knob.
fn parse_knob_list(flag: &str, spec: &str) -> Vec<crate::whatif::Knob> {
    use crate::whatif::Knob;
    if spec == "all" {
        return vec![
            Knob::SerializeScale(0.0),
            Knob::WireLatencyScale(2.0),
            Knob::WireLatencyScale(0.5),
            Knob::WireBandwidthScale(2.0),
            Knob::LockHoldScale(0.0),
            Knob::TagMatchOff,
            Knob::ProgressPerOpOff,
            Knob::PollSkewOff,
            Knob::SendImmediate,
        ];
    }
    spec.split(',')
        .map(|s| {
            Knob::parse(s.trim()).unwrap_or_else(|| {
                eprintln!(
                    "unknown {flag} knob {s:?} (supported: serialize_xK, \
                     wire_latency_xK, wire_bw_xK, lock_hold_xK, tag_match_off, \
                     cq_per_op_off, poll_skew_off, send_immediate, all)"
                );
                std::process::exit(2);
            })
        })
        .collect()
}

/// The default `--slo` rules: end-to-end parcel latency and raw fabric
/// delivery latency, both at a 99% objective with a burn-rate threshold
/// of 1 (any window spending its error budget faster than allowed
/// alerts).
pub fn default_slo_rules() -> Vec<SloRule> {
    vec![
        SloRule {
            name: "parcel-latency".into(),
            hist: "parcel.latency_ns".into(),
            objective_ns: 50_000,
            target: 0.99,
            burn_threshold: 1.0,
            min_samples: 16,
        },
        SloRule {
            name: "fabric-delivery".into(),
            hist: "fabric.delivery_ns".into(),
            objective_ns: 20_000,
            target: 0.99,
            burn_threshold: 1.0,
            min_samples: 16,
        },
    ]
}

/// Run `f` under a fresh telemetry collector configured per `args`
/// (windowed timeline attached when any timeline flag is present) and
/// return its result plus the collector.
pub fn instrumented_for<R>(args: &TraceArgs, f: impl FnOnce() -> R) -> (R, Rc<Telemetry>) {
    let tel = match args.timeline_config() {
        Some(cfg) => telemetry::enable_with(cfg),
        None => telemetry::enable(),
    };
    let r = f();
    telemetry::disable();
    (r, tel)
}

/// The shared harness dispatch: when any observability flag is present,
/// run the what-if pass (if `--whatif`) and/or the instrumented pass and
/// return `true` — the binary should then skip its full figure sweep.
/// Returns `false` when no flag was given.
pub fn dispatch(
    args: &TraceArgs,
    whatif_pass: impl FnOnce(),
    instrumented_pass: impl FnOnce(),
) -> bool {
    if !args.active() {
        return false;
    }
    if args.whatif.is_some() {
        whatif_pass();
    }
    if args.trace.is_some()
        || args.wants_reports()
        || args.critpath
        || args.timeline_active()
        || args.record.is_some()
    {
        instrumented_pass();
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> TraceArgs {
        TraceArgs::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_all_flags() {
        let a = parse(&[
            "--trace",
            "t.json",
            "--breakdown",
            "--json",
            "r.json",
            "--profile",
            "--folded",
            "f.txt",
            "--critpath",
            "--whatif",
            "all",
            "--timeline",
            "tl.json",
            "--slo",
            "--window-us",
            "250",
        ]);
        assert_eq!(a.trace.as_deref(), Some("t.json"));
        assert!(a.breakdown && a.profile && a.critpath && a.slo);
        assert_eq!(a.timeline.as_deref(), Some("tl.json"));
        assert_eq!(a.window_us, Some(250));
        assert!(a.active() && a.wants_reports() && a.timeline_active());
        let cfg = a.timeline_config().unwrap();
        assert_eq!(cfg.window_ns, 250_000);
        assert_eq!(cfg.slos.len(), 2);
    }

    #[test]
    fn timeline_flags_activate_the_pass() {
        let a = parse(&["--slo"]);
        assert!(a.active() && a.timeline_active() && !a.wants_reports());
        let cfg = a.timeline_config().unwrap();
        assert_eq!(cfg.window_ns, telemetry::timeline::DEFAULT_WINDOW_NS);
        assert!(!cfg.slos.is_empty());
        let b = parse(&["--breakdown"]);
        assert!(b.timeline_config().is_none());
    }

    #[test]
    fn empty_args_are_inactive() {
        let a = parse(&[]);
        assert!(!a.active() && !a.timeline_active());
        assert!(a.timeline_config().is_none());
    }

    #[test]
    fn record_flag_activates_the_pass() {
        let a = parse(&["--record", "r.json"]);
        assert!(a.active() && !a.wants_reports() && !a.timeline_active());
        assert_eq!(a.record.as_deref(), Some("r.json"));
    }

    #[test]
    fn out_dir_fills_canonical_paths_without_clobbering() {
        let mut a = parse(&["--out", "artifacts", "--trace", "mine.json"]);
        a.resolve_out();
        assert_eq!(a.trace.as_deref(), Some("mine.json"));
        assert_eq!(a.json.as_deref(), Some("artifacts/report.json"));
        assert_eq!(a.folded.as_deref(), Some("artifacts/folded.txt"));
        assert_eq!(a.timeline.as_deref(), Some("artifacts/timeline.json"));
        assert_eq!(a.record.as_deref(), Some("artifacts/record.json"));
        assert!(a.active() && a.wants_reports() && a.timeline_active());
    }

    #[test]
    fn params_and_knobs_parse() {
        let a = parse(&[
            "--param",
            "window=8",
            "--param",
            "steps=50",
            "--knobs",
            "wire_latency_x2,send_immediate",
        ]);
        assert_eq!(a.param("window"), Some("8"));
        assert_eq!(a.param_usize("window", 64), 8);
        assert_eq!(a.param_usize("missing", 64), 64);
        assert_eq!(
            a.dial_knob_names(),
            vec!["wire_latency_x2".to_string(), "send_immediate".to_string()]
        );
        // --knobs alone dials models but does not request a pass.
        assert!(!a.active());
        let mut cfg: parcelport::PpConfig = "lci_psr_cq_pin_i".parse().unwrap();
        let mut cost = simcore::CostModel::default_model();
        let mut wire = netsim::WireModel::expanse();
        let before = wire.latency_ns;
        assert!(a.apply_dials(&mut cfg, &mut cost, &mut wire));
        assert_eq!(wire.latency_ns, before * 2);
        assert!(cfg.send_immediate);
    }

    #[test]
    fn engine_flags_select_the_engine() {
        assert_eq!(parse(&[]).engine(), Engine::SingleHeap);
        assert_eq!(parse(&[]).engine_banner(), None);
        assert_eq!(parse(&["--shards", "4"]).engine(), Engine::Federated { shards: 4, mode: None });
        assert_eq!(
            parse(&["--run-mode", "seq"]).engine(),
            Engine::Federated { shards: 1, mode: Some(RunMode::Sequential) }
        );
        let a = parse(&["--shards", "2", "--run-mode", "threaded"]);
        assert_eq!(a.engine(), Engine::Federated { shards: 2, mode: Some(RunMode::Threaded) });
        assert_eq!(
            a.engine_banner().as_deref(),
            Some("engine: sharded world, 2 shard(s), threaded executor")
        );
    }

    #[test]
    fn repeated_params_last_wins() {
        let a = parse(&["--param", "window=8", "--param", "window=64"]);
        assert_eq!(a.param("window"), Some("64"));
    }
}
