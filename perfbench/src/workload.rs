//! The three workloads and the campaign specs their sessions run.
//!
//! * `kernel` — `kernel-latency` at 8, 32 and 128 rules per level: almost
//!   all time in `SafetyKernel::run_cycle`, no engine, bus or I/O.
//! * `overload` — `middleware-overload` at 10× and 20× rated load with the
//!   mixed QoS mix: time in `EventBus` publish/drain and the `Engine` loop,
//!   no kernel and no I/O.
//! * `fleet` — every registered family at its default spec, one campaign
//!   session per family, with the JSONL run sink, the trace writer and a
//!   checkpoint every chunk attached.

use karyon_scenario::{FamilyInfo, ParamValue, ScenarioRegistry};

/// The seed the workloads use unless `--seed` says otherwise.
pub const DEFAULT_SEED: u64 = 2026;

/// Campaign workers per session: the build box's two cores.
pub const WORKERS: usize = 2;

/// Rule counts of the `kernel` workload (48 to 768 rule conditions).
pub const KERNEL_RULES: [u64; 3] = [8, 32, 128];
/// Replications per rule count on `kernel`.
pub const KERNEL_REPLICATIONS: u64 = 8;
/// Chunk size on `kernel`: small enough that both workers get chunks.
pub const KERNEL_CHUNK: u64 = 2;

/// Offered loads of the `overload` workload, in multiples of the rated rate.
pub const OVERLOAD_LOADS: [f64; 2] = [10.0, 20.0];
/// Replications per load on `overload`.
pub const OVERLOAD_REPLICATIONS: u64 = 16;
/// Chunk size on `overload`: small enough that both workers get chunks.
pub const OVERLOAD_CHUNK: u64 = 2;

/// Canonical chunks per `fleet` session (one checkpoint after each): the
/// runner's in-flight window (two chunks per worker), so both workers get
/// chunks and every chunk of a session can be in flight at once.
pub const FLEET_CHUNKS: u64 = 4;

/// Frozen `fleet` replication counts.  Each family's session gets about
/// 0.1 s of wall time per round at the commit that introduced the
/// benchmark: `round(0.1 s / s-per-run)`, with the cost per run the median
/// of five `--calibrate` runs, measured in the `fleet` session form (two
/// workers, JSONL sink, trace, a checkpoint every chunk) on a 2-core x86-64
/// box.  Frozen so that later changes to a family show as a change in
/// throughput, not in weight.
pub const FLEET: [(&str, u64); 17] = [
    ("avionics-rpv", 6_046),
    ("cooperation", 13_514),
    ("end-to-end", 1_196),
    ("inaccessibility", 6),
    ("intersection", 2_804),
    ("kernel-latency", 64),
    ("lane-change", 948),
    ("middleware-overload", 12),
    ("middleware-qos", 432),
    ("net-transport", 2_480),
    ("platoon", 127),
    ("platoon-fault", 127),
    ("pulse-sync", 215),
    ("reliable-sensor", 464),
    ("sensor-validity", 1_862),
    ("tdma", 927),
    ("topology", 639),
];

/// The module of `crates/scenario/src/families/` each family lives in.
pub const FAMILY_MODULES: [(&str, &str); 17] = [
    ("avionics-rpv", "vehicle"),
    ("cooperation", "safety"),
    ("end-to-end", "net"),
    ("inaccessibility", "net"),
    ("intersection", "vehicle"),
    ("kernel-latency", "safety"),
    ("lane-change", "vehicle"),
    ("middleware-overload", "middleware"),
    ("middleware-qos", "middleware"),
    ("net-transport", "net"),
    ("platoon", "vehicle"),
    ("platoon-fault", "vehicle"),
    ("pulse-sync", "net"),
    ("reliable-sensor", "sensors"),
    ("sensor-validity", "sensors"),
    ("tdma", "net"),
    ("topology", "safety"),
];

/// The family modules, in report order.
pub const MODULES: [&str; 5] = ["vehicle", "net", "sensors", "safety", "middleware"];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `kernel-latency` rule sweep.
    Kernel,
    /// `middleware-overload` load sweep.
    Overload,
    /// All families with the campaign's I/O features.
    Fleet,
}

/// One campaign session of a workload round.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// The family the session runs.
    pub family: String,
    /// The campaign spec, as `Campaign::from_json_str` reads it.
    pub json: String,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Kernel, Workload::Overload, Workload::Fleet];

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Kernel => "kernel",
            Workload::Overload => "overload",
            Workload::Fleet => "fleet",
        }
    }

    /// True when the sessions write JSONL, trace and checkpoint files.
    pub fn writes_artifacts(self) -> bool {
        self == Workload::Fleet
    }

    /// The campaign specs of one round, in run order.
    pub fn sessions(self, seed: u64, registry: &ScenarioRegistry) -> Vec<SessionSpec> {
        match self {
            Workload::Kernel => vec![session(
                "kernel-latency",
                seed,
                KERNEL_CHUNK,
                KERNEL_REPLICATIONS,
                &format!("{{\"rules_per_level\":{}}}", json_list(&KERNEL_RULES)),
            )],
            Workload::Overload => vec![session(
                "middleware-overload",
                seed,
                OVERLOAD_CHUNK,
                OVERLOAD_REPLICATIONS,
                &format!(
                    "{{\"load_x\":{},\"qos_mix\":[\"mixed\"]}}",
                    json_list(&OVERLOAD_LOADS.map(ParamValue::Float).map(|v| v.to_json()))
                ),
            )],
            Workload::Fleet => {
                let families = registry.describe();
                FLEET
                    .iter()
                    .map(|&(family, replications)| {
                        fleet_session(&families, family, seed, replications)
                    })
                    .collect()
            }
        }
    }
}

/// The `fleet` session of `family`: its default point, `replications`
/// runs in [`FLEET_CHUNKS`] chunks.
pub fn fleet_session(
    families: &[FamilyInfo],
    family: &str,
    seed: u64,
    replications: u64,
) -> SessionSpec {
    let info = families
        .iter()
        .find(|f| f.name == family)
        .unwrap_or_else(|| panic!("family {family:?} is not registered"));
    let axes: Vec<String> =
        info.params.iter().map(|p| format!("\"{}\":[{}]", p.name, p.default.to_json())).collect();
    let grid = format!("{{{}}}", axes.join(","));
    session(family, seed, replications.div_ceil(FLEET_CHUNKS), replications, &grid)
}

/// The module `family` lives in.
pub fn module_of(family: &str) -> &'static str {
    FAMILY_MODULES.iter().find(|(f, _)| *f == family).map_or("unknown", |(_, m)| *m)
}

fn session(family: &str, seed: u64, chunk: u64, replications: u64, grid: &str) -> SessionSpec {
    let json = format!(
        "{{\"name\":\"perfbench-{family}\",\"seed\":{seed},\"chunk_size\":{chunk},\
         \"threads\":{WORKERS},\"entries\":[{{\"scenario\":\"{family}\",\
         \"replications\":{replications},\"grid\":{grid}}}]}}"
    );
    SessionSpec { family: family.to_string(), json }
}

fn json_list<T: ToString>(values: &[T]) -> String {
    let items: Vec<String> = values.iter().map(ToString::to_string).collect();
    format!("[{}]", items.join(","))
}
