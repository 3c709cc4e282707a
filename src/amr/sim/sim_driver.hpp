// Shared driver for the simulation frontends (amrcplx run, amrcplx
// sweep, amrcplx serve): one job spec -> validated config -> owned
// workload/policy/Simulation, plus the canonical report rendering.
//
// Before this existed, each frontend carried its own copy of the
// flag-to-config mapping, the mode-matrix validation, the fault-schedule
// construction, and the report formatter — and the serve determinism
// contract ("a job's bytes are identical standalone or multiplexed")
// is only checkable if all frontends provably produce their text the
// same way. Hoisting them here means the frontends cannot drift: they
// parse flags into a JobSpec and defer everything else.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "amr/placement/registry.hpp"
#include "amr/sim/simulation.hpp"

namespace amr {

class SharedPlanStore;

/// One simulation job, as a frontend-neutral value: flags from the CLIs
/// and JSON fields from the serve protocol both land here, through the
/// job_fields() table. Defaults mirror `amrcplx run`.
struct JobSpec {
  std::string id;  ///< serve job identifier (CLIs leave it empty)
  std::string workload = "sedov";  ///< sedov | cooling
  std::string policy = "cpl50";
  std::int64_t ranks = 64;
  std::int64_t steps = 40;
  bool overlap = false;  ///< overlap execution instead of BSP
  bool comm_adaptive = false;  ///< per-peer message packing
  /// Second spelling of comm_adaptive for API callers, resolved inside
  /// sim_driver: downstream code reads SimulationConfig::comm_adaptive,
  /// never this field. (The `aggregate` job field sets comm_adaptive.)
  bool aggregate = false;
  bool send_priority = false;
  /// Self-tuning CPLX: the auto-X tuner picks X per regrid epoch.
  bool auto_cplx = false;
  /// Removed option kept for API callers that still set it: nothing
  /// reads it, and no job field or flag sets it. CPLX placements take
  /// one path (CplxPolicy::place, or the auto-X engine).
  bool placement_incremental = false;
  bool collect_telemetry = true;
  /// Sedov refinement depth override; 0 keeps the workload default.
  std::int32_t sedov_max_level = 0;
  std::int64_t checkpoint_every = 0;
  std::string checkpoint_dir = ".";
  std::string restore;  ///< resume from snapshot
  /// Throttle this many nodes x4 for the middle half of the run,
  /// victims drawn deterministically from the seed.
  std::int32_t fault_nodes = 0;
  bool trace = false;
  std::size_t trace_capacity = 0;  ///< 0 = TraceConfig default

  friend bool operator==(const JobSpec&, const JobSpec&) = default;
};

/// What changing a job field's value does to a run.
enum class JobEffect {
  /// Changes answers: a snapshot restored under another value is
  /// refused, naming the field's config fingerprint entry (`axis`).
  kAnswer,
  /// The what-if: a snapshot restored under another value continues the
  /// run under it (the placement policy).
  kWhatIf,
  /// Changes no stdout byte (labels, checkpoint cadence and place, the
  /// restore point).
  kOutput,
};

/// One job field, declared once for every frontend: `name` is the serve
/// JSON key, and the CLI flag is `--name` with '-' for '_'. Rows that
/// share a member are aliases ("aggregate" sets comm_adaptive); the
/// last one given wins. collect_telemetry, trace and trace_capacity are
/// not rows: each frontend sets them from its own presets and flags.
struct JobField {
  using Member = std::variant<std::string JobSpec::*, std::int64_t JobSpec::*,
                              std::int32_t JobSpec::*, bool JobSpec::*>;
  const char* name;
  Member member;
  const char* help;
  JobEffect effect;
  /// kAnswer rows: the meta fingerprint entry a changed restore is
  /// refused by (sim/sim_state.cpp).
  const char* axis = nullptr;
  /// Set on a bool member spelled as a choice of two words instead of a
  /// boolean ("execution": off = "bsp", on = "overlap").
  const char* off = nullptr;
  const char* on = nullptr;
};

/// A field value as parsed from a serve JSON line or a CLI flag.
using JobValue = std::variant<std::string, std::int64_t, bool>;

/// The job-field table, in help order.
std::span<const JobField> job_fields();

/// Rows that name one run's snapshots: `amrcplx sweep` refuses them.
inline constexpr std::string_view kSingleRunFields[] = {
    "restore", "checkpoint_every", "checkpoint_dir"};

/// The row named `name` (JSON spelling), or nullptr.
const JobField* find_job_field(std::string_view name);

/// What a row takes, as it reads after "must be": "an integer",
/// "a boolean", "a string", or the two words of a choice.
std::string job_field_kind(const JobField& field);

/// Store `value` into the row's member. Returns "" on success, else
/// "must be <kind>"; the frontend prefixes the field's name.
std::string set_job_field(JobSpec& spec, const JobField& field,
                          const JobValue& value);

/// The row's current value in `spec`, rendered for help text.
std::string job_field_text(const JobSpec& spec, const JobField& field);

/// Input and mode-matrix validation, the one place every frontend's job
/// is checked, so all reject the same inputs with the same words:
/// ranges (ranks a power of two, counts >= 0), the workload name, and
/// contradictory modes. Returns "" when the spec is coherent, else the
/// failure message (no program-name prefix — the frontend adds its own).
std::string validate_job(const JobSpec& spec);

/// Paper Table I mesh sizes: 512 -> 128^3 cells = 8^3 root blocks of
/// 16^3 cells, 1024 -> 8x8x16, 2048 -> 8x16x16, 4096 -> 16^3;
/// other powers of two continue the doubling pattern.
RootGrid grid_for_ranks(std::int64_t ranks);

/// Canonical run configuration shared by the figure benches and the
/// CLIs: the paper cluster shape (16 ranks/node), the Table I root grid
/// for `ranks`, and per-(step,rank) telemetry off (harnesses that want
/// the collector turn it back on).
SimulationConfig base_sim_config(std::int64_t ranks, std::int64_t steps);

/// Full SimulationConfig for a validated spec, including the fault
/// schedule. Does not set shared_plans (the serve scheduler wires that
/// per tenant).
SimulationConfig job_config(const JobSpec& spec);

/// The deterministic fail-slow schedule shared by `amrcplx run` and
/// `amrcplx sweep` --faults and serve fault-scenario jobs: throttle
/// `fault_nodes` nodes x4 for the middle half of the run, victims
/// picked from the config seed. A restore inside, at, or after the
/// fault window must reproduce both edges.
void add_fault_schedule(SimulationConfig& cfg, std::int32_t fault_nodes,
                        std::int64_t steps);

/// Workload factory for the spec (nullptr + caller-rendered error for an
/// unknown name).
std::unique_ptr<Workload> make_job_workload(const JobSpec& spec);

/// The `amrcplx run` report rendering (compact). Byte-for-byte the text
/// the serve scheduler emits per job — that identity is what the
/// serve_determinism contract checks.
std::string compact_report_text(const RunReport& r, bool show_packing);

/// One job end to end: owns config, workload, policy, and Simulation in
/// construction order so teardown is safe. Construction performs the
/// restore if the spec names a snapshot.
class SimDriver {
 public:
  /// Throws std::runtime_error on an incoherent spec, unknown
  /// workload/policy, or a snapshot that fails to restore.
  explicit SimDriver(const JobSpec& spec,
                     SharedPlanStore* shared_plans = nullptr);
  ~SimDriver();

  SimDriver(const SimDriver&) = delete;
  SimDriver& operator=(const SimDriver&) = delete;

  const JobSpec& spec() const { return spec_; }
  const SimulationConfig& config() const { return config_; }
  const PlacementPolicy& policy() const { return *policy_; }
  Simulation& sim() { return *sim_; }

  /// Non-empty iff the spec restored a snapshot: the stderr
  /// diagnostic line ("restored <path> at step N (policy=...)"),
  /// without trailing newline. Frontends print it to stderr so job
  /// stdout stays byte-identical to an uninterrupted run.
  const std::string& restore_note() const { return restore_note_; }

  /// Run to the step horizon (the classic blocking loop); throws
  /// io::SnapshotError naming a checkpoint it cannot write. The serve
  /// scheduler uses sim().begin()/advance()/finish() instead.
  RunReport run() { return sim_->run(); }

 private:
  JobSpec spec_;
  SimulationConfig config_;
  std::unique_ptr<Workload> workload_;
  PolicyPtr policy_;
  std::unique_ptr<Simulation> sim_;
  std::string restore_note_;
};

}  // namespace amr
