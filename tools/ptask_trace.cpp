// ptask_trace: runs a built-in program with tracing on and emits a
// Perfetto-loadable Chrome trace-event JSON file, a text summary of the
// recorded spans and metrics, and a cost-model calibration table (predicted
// vs measured time per task and per layer).
//
// Two kinds of programs:
//  * ode_epol / ode_irk execute a real scheduled ODE time step on the
//    shared-memory runtime (rt::Executor) -- spans carry wall-clock time;
//  * epol | irk | diirk | pab | pabm | sp-mz | bt-mz run the discrete-event
//    network simulator over the mapped schedule -- spans carry simulated
//    time, and the calibration table is computed from the scheduler's own
//    symbolic timeline (a differential oracle: ~0 relative error).
//
// Exit codes: 0 = ok, 1 = self-check failure, 2 = usage error.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "ptask/arch/machine.hpp"
#include "ptask/cost/cost_model.hpp"
#include "ptask/map/mapping.hpp"
#include "ptask/npb/multizone.hpp"
#include "ptask/obs/calibration.hpp"
#include "ptask/obs/export.hpp"
#include "ptask/obs/json.hpp"
#include "ptask/obs/metrics.hpp"
#include "ptask/obs/trace.hpp"
#include "ptask/ode/bruss2d.hpp"
#include "ptask/ode/graph_gen.hpp"
#include "ptask/ode/spmd_solvers.hpp"
#include "ptask/rt/executor.hpp"
#include "ptask/sched/pipeline.hpp"
#include "ptask/sched/registry.hpp"
#include "ptask/sched/timeline.hpp"

namespace {

using namespace ptask;

struct Options {
  std::string program = "ode_irk";
  std::string out;  // default: <program>.trace.json
  std::string machine = "chic";
  std::string scheduler = "layer";
  int cores = 8;
  int steps = 2;
  bool selfcheck = false;
  bool quiet = false;
};

const std::vector<std::string>& all_programs() {
  static const std::vector<std::string> names = {
      "ode_epol", "ode_irk", "epol", "irk", "diirk",
      "pab",      "pabm",    "sp-mz", "bt-mz"};
  return names;
}

void usage(std::ostream& os) {
  os << "usage: ptask_trace [options]\n"
        "  --program NAME  ode_epol|ode_irk (real execution) or\n"
        "                  epol|irk|diirk|pab|pabm|sp-mz|bt-mz (simulated)\n"
        "                  (default: ode_irk)\n"
        "  --out PATH      trace output file (default: <program>.trace.json)\n"
        "  --cores N       core count (default: 8)\n"
        "  --steps N       time steps to execute / unroll (default: 2)\n"
        "  --machine NAME  machine preset: chic|juropa|altix (default: chic)\n"
        "  --scheduler NAME scheduling strategy from the registry:\n"
        "                  layer|cpa|mcpa|cpr|dp|portfolio (default: layer);\n"
        "                  real-execution programs need a layered strategy\n"
        "  --selfcheck     re-parse the emitted JSON and validate its\n"
        "                  structure (exit 1 on failure)\n"
        "  --quiet         suppress the summary and calibration output\n"
        "  --list          list the built-in programs and exit\n"
        "  --help          this message\n"
        "environment:\n"
        "  PTASK_SCHED_PARALLEL_LAYERS=N  schedule independent layers on N\n"
        "                  threads (layer strategy; same output, less wall\n"
        "                  time on deep graphs)\n";
}

struct RunOutput {
  std::vector<obs::Span> trace_spans;        ///< what goes into the file
  std::vector<obs::Span> calibration_spans;  ///< what calibrate() joins
  sched::LayeredSchedule schedule;
  bool has_calibration = true;  ///< allocation-only strategies skip the table
};

/// PTASK_SCHED_PARALLEL_LAYERS=N (N > 1) schedules independent layers on N
/// threads in the layer pipeline; the output is bit-identical either way
/// (LayerSchedulerOptions::parallel_layers contract).
int env_parallel_layers() {
  if (const char* env = std::getenv("PTASK_SCHED_PARALLEL_LAYERS")) {
    const int n = std::atoi(env);
    if (n > 1) return n;
  }
  return 1;
}

/// The strategy selected by --scheduler.  "layer" honours the
/// program-specific pass options (e.g. ode_irk's fixed group count) plus
/// the PTASK_SCHED_PARALLEL_LAYERS environment knob; every other name is
/// instantiated from the registry with its defaults.
std::unique_ptr<sched::Scheduler> make_scheduler(
    const std::string& name, const cost::CostModel& cost,
    sched::LayerSchedulerOptions layer_opts = {}) {
  if (name == "layer") {
    layer_opts.parallel_layers = env_parallel_layers();
    return std::make_unique<sched::Pipeline>(
        sched::Pipeline::algorithm1(cost, layer_opts));
  }
  return sched::SchedulerRegistry::instance().make(name, cost);
}

/// Schedules `g` with the selected strategy for real execution; throws when
/// the strategy yields no layer structure (the executor needs one).
sched::LayeredSchedule schedule_for_execution(
    const Options& opt, const cost::CostModel& cost, const core::TaskGraph& g,
    sched::LayerSchedulerOptions layer_opts) {
  sched::Schedule s =
      make_scheduler(opt.scheduler, cost, layer_opts)->run(g, opt.cores);
  if (!s.has_layers()) {
    throw std::invalid_argument("scheduler '" + opt.scheduler +
                                "' produces no layered schedule; real "
                                "execution needs one (use layer|dp)");
  }
  return std::move(s.layered);
}

/// Executes a real ODE time-step program on the runtime with tracing on.
RunOutput run_real(const Options& opt, const cost::CostModel& cost) {
  obs::tracer().set_enabled(true);
  obs::tracer().clear();

  RunOutput out;
  const double h = 0.002;
  double t = 0.1;

  if (opt.program == "ode_epol") {
    const ode::Bruss2D system(8);
    std::vector<double> y = system.initial_state();
    sched::LayerSchedulerOptions sopts;  // free group count
    bool have_schedule = false;
    rt::Executor exec(opt.cores);
    for (int s = 0; s < opt.steps; ++s) {
      ode::SpmdEpolStep program(system, 4, t, h, y);
      const core::TaskGraph g = program.build_graph();
      if (!have_schedule) {
        out.schedule = schedule_for_execution(opt, cost, g, sopts);
        have_schedule = true;
      }
      std::vector<rt::TaskFn> fns = program.build_functions(g);
      exec.run(out.schedule, fns);
      y = program.result();
      t += h;
    }
  } else {  // ode_irk
    const int stages = 4;
    const ode::Bruss2D system(6);
    std::vector<double> y = system.initial_state();
    sched::LayerSchedulerOptions sopts;
    sopts.fixed_groups = stages;  // task-parallel form requires K groups
    bool have_schedule = false;
    rt::Executor exec(opt.cores);
    for (int s = 0; s < opt.steps; ++s) {
      ode::SpmdIrkStep program(system, stages, 2, t, h, y);
      const core::TaskGraph g = program.build_graph();
      if (!have_schedule) {
        out.schedule = schedule_for_execution(opt, cost, g, sopts);
        have_schedule = true;
      }
      std::vector<rt::TaskFn> fns = program.build_functions(g);
      exec.run(out.schedule, fns);
      y = program.result();
      t += h;
    }
  }

  out.trace_spans = obs::tracer().take();
  out.calibration_spans = out.trace_spans;  // measured == real wall clock
  return out;
}

/// Builds the flattened, marker-enclosed graph of one specification program
/// (same construction as ptask_lint).
core::TaskGraph build_graph(const std::string& name, int steps) {
  core::TaskGraph step;
  if (name == "sp-mz" || name == "bt-mz") {
    const npb::MzSolver solver =
        name == "sp-mz" ? npb::MzSolver::SP : npb::MzSolver::BT;
    step = npb::step_graph(npb::make_problem(solver, 'S'));
  } else {
    ode::SolverGraphSpec spec;
    spec.n = std::size_t{1} << 12;
    spec.stages = 4;
    spec.iterations = 2;
    if (name == "epol") spec.method = ode::Method::EPOL;
    else if (name == "irk") spec.method = ode::Method::IRK;
    else if (name == "diirk") spec.method = ode::Method::DIIRK;
    else if (name == "pab") spec.method = ode::Method::PAB;
    else spec.method = ode::Method::PABM;
    step = spec.step_graph();
  }
  core::TaskGraph program = core::repeat_graph(step, steps);
  program.add_start_stop_markers();
  return program;
}

/// Schedules + maps one specification program and runs the discrete-event
/// simulator in trace mode.  The calibration spans come from the symbolic
/// Gantt timeline, so the report is the exact-model differential oracle.
/// Allocation-only strategies (cpa/mcpa/cpr) have no group structure to map
/// into the simulator; their trace spans are synthesized straight from the
/// Gantt slots and the calibration table is skipped.
RunOutput run_simulated(const Options& opt, const arch::Machine& machine,
                        const cost::CostModel& cost) {
  RunOutput out;
  const core::TaskGraph graph = build_graph(opt.program, opt.steps);
  sched::Schedule schedule =
      make_scheduler(opt.scheduler, cost)->run(graph, opt.cores);

  if (!schedule.has_layers()) {
    const core::TaskGraph& g = schedule.scheduled_graph();
    for (core::TaskId id = 0; id < g.num_tasks(); ++id) {
      const sched::TaskSlot& slot =
          schedule.gantt.slots[static_cast<std::size_t>(id)];
      if (slot.cores.empty()) continue;  // marker
      obs::Span span;
      span.kind = obs::SpanKind::Task;
      span.clock = obs::ClockDomain::Simulated;
      span.name = g.task(id).name();
      span.task = id;
      span.contracted = id;
      span.worker = slot.cores.front();
      span.group_size = slot.num_cores();
      span.begin_s = slot.start;
      span.end_s = slot.finish;
      out.trace_spans.push_back(std::move(span));
    }
    out.schedule = std::move(schedule.layered);
    out.has_calibration = false;
    return out;
  }

  out.schedule = std::move(schedule.layered);
  const std::vector<cost::LayerLayout> layouts = map::map_schedule(
      out.schedule, machine, map::Strategy::Consecutive);
  sched::TimelineOptions topts;
  topts.record_trace = true;
  const sim::SimResult result =
      sched::TimelineEvaluator(cost).simulate(out.schedule, layouts, topts);
  out.trace_spans = obs::spans_from_sim(result);

  // canonical() already lowered the layered schedule with the scheduler's
  // own symbolic costs; its Gantt view is exactly the calibration timeline.
  out.calibration_spans = obs::spans_from_gantt(out.schedule, schedule.gantt);
  return out;
}

/// Validates the emitted trace file: parses, checks the traceEvents shape,
/// and that every complete event carries a begin (ts) and duration (dur).
bool selfcheck(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "ptask_trace: selfcheck: cannot re-open '" << path << "'\n";
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  obs::json::Value doc;
  try {
    doc = obs::json::parse(buffer.str());
  } catch (const std::exception& e) {
    std::cerr << "ptask_trace: selfcheck: " << e.what() << "\n";
    return false;
  }
  if (!doc.is_object()) {
    std::cerr << "ptask_trace: selfcheck: document is not an object\n";
    return false;
  }
  const obs::json::Value* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array() || events->array.empty()) {
    std::cerr << "ptask_trace: selfcheck: missing or empty traceEvents\n";
    return false;
  }
  std::size_t complete = 0;
  for (const obs::json::Value& e : events->array) {
    const obs::json::Value* ph = e.find("ph");
    const obs::json::Value* name = e.find("name");
    const obs::json::Value* pid = e.find("pid");
    if (!e.is_object() || ph == nullptr || !ph->is_string() ||
        name == nullptr || !name->is_string() || pid == nullptr ||
        !pid->is_number()) {
      std::cerr << "ptask_trace: selfcheck: malformed event\n";
      return false;
    }
    if (ph->string == "M") continue;  // metadata: no timestamps
    const obs::json::Value* tid = e.find("tid");
    const obs::json::Value* ts = e.find("ts");
    if (tid == nullptr || !tid->is_number() || ts == nullptr ||
        !ts->is_number() || ts->number < 0.0) {
      std::cerr << "ptask_trace: selfcheck: event without track/timestamp\n";
      return false;
    }
    if (ph->string == "X") {
      // A complete event is a matched begin/end pair: ts + dur.
      const obs::json::Value* dur = e.find("dur");
      if (dur == nullptr || !dur->is_number() || dur->number < 0.0) {
        std::cerr << "ptask_trace: selfcheck: X event without duration\n";
        return false;
      }
      ++complete;
    } else if (ph->string != "i") {
      std::cerr << "ptask_trace: selfcheck: unexpected phase '" << ph->string
                << "'\n";
      return false;
    }
  }
  if (complete == 0) {
    std::cerr << "ptask_trace: selfcheck: no complete spans in trace\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "ptask_trace: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--program") {
      opt.program = value("--program");
    } else if (arg == "--out") {
      opt.out = value("--out");
    } else if (arg == "--cores") {
      opt.cores = std::atoi(value("--cores"));
    } else if (arg == "--steps") {
      opt.steps = std::atoi(value("--steps"));
    } else if (arg == "--machine") {
      opt.machine = value("--machine");
    } else if (arg == "--scheduler") {
      opt.scheduler = value("--scheduler");
    } else if (arg == "--selfcheck") {
      opt.selfcheck = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--list") {
      for (const std::string& name : all_programs()) {
        std::cout << name << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else {
      std::cerr << "ptask_trace: unknown option '" << arg << "'\n";
      usage(std::cerr);
      return 2;
    }
  }
  bool known = false;
  for (const std::string& name : all_programs()) known |= name == opt.program;
  if (!known) {
    std::cerr << "ptask_trace: unknown program '" << opt.program << "'\n";
    return 2;
  }
  if (opt.cores < 1 || opt.steps < 1) {
    std::cerr << "ptask_trace: --cores and --steps must be >= 1\n";
    return 2;
  }
  if (!sched::SchedulerRegistry::instance().contains(opt.scheduler)) {
    std::cerr << "ptask_trace: unknown scheduler '" << opt.scheduler
              << "'; known:";
    for (const std::string& n : sched::SchedulerRegistry::instance().names()) {
      std::cerr << " " << n;
    }
    std::cerr << "\n";
    return 2;
  }
  if (opt.program == "ode_irk" && opt.scheduler != "layer") {
    // The task-parallel IRK bodies communicate over orthogonal groups and
    // require exactly K concurrent groups -- only the layer strategy's
    // fixed-group mode produces that structure.
    std::cerr << "ptask_trace: ode_irk requires --scheduler layer\n";
    return 2;
  }
  if (opt.out.empty()) opt.out = opt.program + ".trace.json";

  const arch::Machine machine = [&] {
    try {
      return arch::Machine(arch::machine_by_name(opt.machine));
    } catch (const std::exception& e) {
      std::cerr << "ptask_trace: " << e.what() << "\n";
      std::exit(2);
    }
  }();
  const cost::CostModel cost(machine);

  const bool real = opt.program == "ode_epol" || opt.program == "ode_irk";
  if (real && !obs::kTracingCompiledIn) {
    // Simulated programs derive spans from the simulator's own trace, but
    // real execution records through the tracer -- nothing to emit here.
    std::cerr << "ptask_trace: tracing compiled out (PTASK_OBS=OFF); "
              << "skipping real-execution program '" << opt.program << "'\n";
    return 0;
  }
  RunOutput run;
  try {
    run = real ? run_real(opt, cost) : run_simulated(opt, machine, cost);
  } catch (const std::exception& e) {
    std::cerr << "ptask_trace: " << opt.program << ": " << e.what() << "\n";
    return 2;
  }

  {
    std::ofstream out(opt.out);
    if (!out) {
      std::cerr << "ptask_trace: cannot write '" << opt.out << "'\n";
      return 2;
    }
    out << obs::render_chrome_trace(run.trace_spans);
  }
  if (!opt.quiet) {
    std::cout << "wrote " << run.trace_spans.size() << " spans to " << opt.out
              << " (open at ui.perfetto.dev)\n";
    std::cout << obs::render_summary(run.trace_spans, obs::metrics());
    if (run.has_calibration) {
      std::cout << obs::render_calibration(
          obs::calibrate(run.calibration_spans, run.schedule, cost));
    } else {
      std::cout << "(no calibration table: scheduler '" << opt.scheduler
                << "' produces no layered timeline)\n";
    }
  }

  if (opt.selfcheck && !selfcheck(opt.out)) return 1;
  return 0;
}
