/// nubb_run — general-purpose experiment driver.
///
/// Runs a Monte-Carlo balls-into-bins experiment described entirely on the
/// command line, dispatching through the scenario registry
/// (core/scenario.hpp). Subcommands: `run` (the default when the first
/// argument is an option), `merge`, `check-state`, `list`.
/// `nubb_run list` names every registered experiment, `--experiment NAME`
/// picks one (default: max-load). The game flags are the ones nubb_serve
/// and nubb_load take (tool_common.hpp), so runs use stream v2 unless
/// `--stream v1` asks for the per-ball reference order. Examples:
///
///   # the paper's Figure-6 midpoint: 500 small + 500 big bins
///   nubb_run --caps 500x1,500x10
///
///   # uniform selection instead of proportional, 3 choices, heavy load
///   nubb_run --caps 1000x4 --policy uniform --d 3 --balls-factor 10
///
///   # Section 4.5 tuned exponent and a full profile dump
///   nubb_run --caps 50x1,50x3 --policy power --exponent 2.1 --profile
///
///   # registry scenarios beyond the default
///   nubb_run list
///   nubb_run --caps 500x1,500x10 --experiment class-max-load
///   nubb_run --caps 200x1 --experiment hit-every-bin --balls-factor 6
///
///   # randomised capacities (Section 4.2) or power-law populations
///   nubb_run --random-mean 4 --n 10000
///   nubb_run --zipf-alpha 1.5 --zipf-max 64 --n 2000
///
/// Sharded multi-process runs work for every experiment, including batched
/// arrivals (`--batch > 1`): each shard process runs its slice of the
/// replication chunks and writes its collector state as JSON; the merge
/// step folds the states in global chunk order, reproducing the
/// single-process result bit-identically (scripts/shard_run.sh wraps the
/// fan-out and can resume interrupted runs via check-state):
///
///   nubb_run --caps 500x1,500x10 --reps 100000 --shard 0/4 --out s0.json
///   nubb_run --caps 500x1,500x10 --reps 100000 --shard 1/4 --out s1.json
///   ...
///   nubb_run merge s0.json s1.json s2.json s3.json

#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "core/nubb.hpp"
#include "tool_common.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "util/version.hpp"

using namespace nubb;

namespace {

constexpr const char* kShardFormat = "nubb.shard.v2";

/// Parse "i/N" shard coordinates.
std::pair<std::uint64_t, std::uint64_t> parse_shard(const std::string& spec) {
  const auto slash = spec.find('/');
  std::uint64_t index = 0;
  std::uint64_t count = 0;
  bool ok = slash != std::string::npos;
  if (ok) {
    try {
      std::size_t pos_i = 0;
      std::size_t pos_n = 0;
      const std::string i_str = spec.substr(0, slash);
      const std::string n_str = spec.substr(slash + 1);
      index = std::stoull(i_str, &pos_i);
      count = std::stoull(n_str, &pos_n);
      ok = !i_str.empty() && !n_str.empty() && pos_i == i_str.size() && pos_n == n_str.size();
    } catch (const std::exception&) {
      ok = false;
    }
  }
  if (!ok || count == 0 || index >= count) {
    throw std::runtime_error("bad --shard (expected INDEX/COUNT with INDEX < COUNT): " + spec);
  }
  return {index, count};
}

JsonValue load_json_file(const std::string& path, const char* what) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error(std::string("cannot open ") + what + ": " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return JsonValue::parse(text.str());
}

void require_shard_format(const JsonValue& doc, const std::string& path) {
  if (doc.at("format").as_string() != kShardFormat) {
    throw std::runtime_error(path + ": not a " + std::string(kShardFormat) + " file");
  }
}

/// `list`: one line per registered experiment, `NAME  description`.
void print_experiment_list(std::ostream& out) {
  const auto scenarios = ScenarioRegistry::global().list();
  std::size_t width = 0;
  for (const Scenario* s : scenarios) width = std::max(width, s->name().size());
  out << "registered experiments (pick with --experiment NAME):\n";
  for (const Scenario* s : scenarios) {
    out << "  " << s->name() << std::string(width - s->name().size() + 2, ' ')
        << s->description() << "\n";
  }
}

/// Report plumbing shared by fresh runs and `merge`: write the JSON
/// envelope (when requested), hand the positioned ReportContext to
/// `produce` — which runs the scenario's typed fold or its shard-state
/// merge — and close with the elapsed time. One code path for both, so
/// the two report formats cannot drift.
template <typename ProduceFn>
int report_run(const RunMeta& meta, const std::string& json_path, const Timer& timer,
               ProduceFn produce) {
  std::optional<std::ofstream> json_file;
  std::optional<JsonWriter> json;
  if (!json_path.empty()) {
    json_file.emplace(json_path);
    if (!*json_file) throw std::runtime_error("cannot open --json file: " + json_path);
    json.emplace(*json_file);
    json->begin_object();
    json->kv("experiment", meta.experiment);
    json->kv("n", meta.n);
    json->kv("total_capacity", meta.total_capacity);
    json->kv("balls", meta.balls);
    json->kv("batch", meta.batch);
    json->kv("stream", meta.stream);
    json->kv("choices", meta.choices);
    json->kv("policy", meta.policy);
    json->kv("replications", meta.replications);
    json->kv("seed", meta.seed);
  }

  produce(ReportContext{meta, std::cout, json ? &*json : nullptr});

  if (json) {
    json->kv("elapsed_seconds", timer.seconds());
    json->end_object();
    *json_file << "\n";
  }
  std::cout << "elapsed: " << TextTable::num(timer.seconds(), 2) << "s\n";
  return 0;
}

/// Merge mode: load shard state files, validate that they belong to one
/// experiment, and hand the scenario the collector states.
int run_merge(const std::vector<std::string>& files, const std::string& json_path) {
  if (files.empty()) {
    throw std::runtime_error("merge needs at least one shard state file operand");
  }
  Timer timer;
  RunMeta meta;
  std::vector<JsonValue> states;

  for (std::size_t i = 0; i < files.size(); ++i) {
    const JsonValue doc = load_json_file(files[i], "shard file");
    require_shard_format(doc, files[i]);
    const RunMeta file_meta = RunMeta::from_json(doc.at("config"));
    if (i == 0) {
      meta = file_meta;
    } else if (!(file_meta.merge_key() == meta.merge_key())) {
      // merge_key, not operator==: shards that differ only in provenance
      // fields (--huge-pages) carry bit-identical results and merge freely.
      throw std::runtime_error(files[i] +
                               ": shard was produced by a different experiment config than " +
                               files[0]);
    }
    states.push_back(doc.at("state"));
  }

  const Scenario& scenario = ScenarioRegistry::global().require(meta.experiment);
  return report_run(meta, json_path, timer, [&scenario, &states](const ReportContext& ctx) {
    scenario.merge_and_report(states, ctx);
  });
}

/// `check-state`: does an existing state file belong to this exact
/// experiment configuration (and shard coordinate, when given), and does
/// its collector state parse? Powers scripts/shard_run.sh resume — exit 0
/// means the shard can be skipped, non-zero means it must be (re-)run.
int run_check_state(const Scenario& scenario, const RunMeta& meta, const std::string& path,
                    const std::optional<std::pair<std::uint64_t, std::uint64_t>>& shard) {
  const JsonValue doc = load_json_file(path, "state file");
  require_shard_format(doc, path);
  if (!(RunMeta::from_json(doc.at("config")).merge_key() == meta.merge_key())) {
    throw std::runtime_error(path + ": state was produced by a different experiment config");
  }
  if (shard) {
    if (doc.at("shard_index").as_uint64() != shard->first ||
        doc.at("shard_count").as_uint64() != shard->second) {
      throw std::runtime_error(path + ": state belongs to a different shard coordinate");
    }
  }
  scenario.check_state(doc.at("state"));
  std::cout << "state ok: " << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "nubb_run: run a weighted balls-into-bins Monte-Carlo experiment from the "
      "command line (the paper's Algorithm 1 and variants).\n\n"
      "Usage: nubb_run [run|merge|check-state|list] [FILE...] [options]");
  cli.add_subcommand("run", "run the experiment described by the options (the default)");
  cli.add_subcommand("merge",
                     "merge shard state files (operands) into the combined report, "
                     "bit-identical to the unsharded run");
  cli.add_subcommand("check-state",
                     "validate an existing shard state file (operand) against the "
                     "configuration options; exit 0 iff a resumed run may skip it");
  cli.add_subcommand("list", "list the registered experiments and exit");
  cli.allow_positionals("FILE...", "state files for the merge / check-state subcommands");
  tool::add_game_options(cli, "");
  cli.add_int("n", 1000, "bins for the --random-mean / --zipf generators (without --caps)");
  cli.add_double("random-mean", 0.0, "Section-4.2 capacities 1+Bin(7,(c-1)/7) with this mean");
  cli.add_double("zipf-alpha", -1.0, "power-law capacities with this tail exponent");
  cli.add_int("zipf-max", 64, "largest capacity for --zipf-alpha");
  cli.add_double("balls-factor", 1.0, "m = factor * C");
  cli.add_int("batch", 1, "batch size (> 1 = stale-information parallel arrivals)");
  cli.add_string("experiment", "max-load",
                 "registered experiment to run (`nubb_run list` names them)");
  cli.add_int("reps", 1000, "Monte-Carlo replications");
  cli.add_int("chunks", 0,
              "replication chunk count (0 = the pinned 16-chunk layout; raise it to "
              "shard/thread wider — all shards of one run must agree)");
  cli.add_int("checkpoint", 0,
              "gap-trace checkpoint interval in balls (0 = balls/10, at least 1)");
  cli.add_flag("profile", "also print the mean sorted load profile (max-load)");
  cli.add_flag("classes", "also print which capacity class attains the maximum (max-load)");
  cli.add_string("json", "", "write the results as JSON to this file");
  cli.add_string("shard", "",
                 "run only shard INDEX/COUNT of the replication chunks and write the "
                 "collector state with --out");
  cli.add_string("out", "", "output file for the --shard state");
  cli.add_flag("version", "print the library version and exit");

  try {
    if (!cli.parse(argc, argv)) return 0;
    if (cli.flag("version")) {
      std::cout << "nubb_run " << version_string() << "\n";
      return 0;
    }

    const std::string& sub = cli.subcommand();
    if (sub == "check-state" && cli.positionals().size() != 1) {
      throw std::runtime_error("check-state takes exactly one state file operand");
    }
    if (sub != "merge" && sub != "check-state" && !cli.positionals().empty()) {
      throw std::runtime_error("unexpected operand: " + cli.positionals().front());
    }

    if (sub == "list") {
      print_experiment_list(std::cout);
      return 0;
    }

    // --- merge: everything comes from the state files ------------------------
    if (sub == "merge") {
      if (!cli.get_string("shard").empty()) {
        throw std::runtime_error("merge and --shard are mutually exclusive");
      }
      if (cli.was_set("experiment")) {
        throw std::runtime_error(
            "merge derives the experiment from the state files; drop --experiment");
      }
      return run_merge(cli.positionals(), cli.get_string("json"));
    }

    const Scenario& scenario =
        ScenarioRegistry::global().require(cli.get_string("experiment"));

    // --- materialise the bin array ------------------------------------------
    std::vector<std::uint64_t> caps;
    Xoshiro256StarStar cap_rng(static_cast<std::uint64_t>(cli.get_int("seed")) ^ 0xCA95);
    if (!cli.get_string("caps").empty()) {
      caps = tool::parse_caps(cli.get_string("caps"));
    } else if (cli.get_double("zipf-alpha") >= 0.0) {
      caps = zipf_capacities(static_cast<std::size_t>(cli.get_int("n")),
                             cli.get_double("zipf-alpha"),
                             static_cast<std::uint64_t>(cli.get_int("zipf-max")), cap_rng);
    } else if (cli.get_double("random-mean") > 0.0) {
      caps = binomial_capacities(static_cast<std::size_t>(cli.get_int("n")),
                                 cli.get_double("random-mean"), cap_rng);
    } else {
      caps = uniform_capacities(static_cast<std::size_t>(cli.get_int("n")), 1);
    }

    std::uint64_t C = 0;
    for (const auto c : caps) C += c;

    ScenarioSpec spec;
    spec.capacities = std::move(caps);
    spec.policy = tool::parse_policy(cli.get_string("policy"), cli.get_double("exponent"),
                                     static_cast<std::uint64_t>(cli.get_int("threshold")));
    spec.game.choices = static_cast<std::uint32_t>(cli.get_int("d"));
    spec.game.tie_break = tool::parse_tie_break(cli.get_string("tie-break"));
    spec.game.balls = static_cast<std::uint64_t>(cli.get_double("balls-factor") *
                                                 static_cast<double>(C));
    // Resolve the library's "0 means m = C" convention here so RunMeta (and
    // with it every report and state-file config block) records the ball
    // count that actually runs.
    if (spec.game.balls == 0) spec.game.balls = C;
    if (cli.get_int("batch") < 1) throw std::runtime_error("--batch must be >= 1");
    spec.game.batch = static_cast<std::uint64_t>(cli.get_int("batch"));
    spec.game.stream = tool::parse_stream(cli.get_string("stream"));
    spec.game.memory.huge_pages = parse_huge_pages(cli.get_string("huge-pages"));
    spec.game.simd = parse_simd_mode(cli.get_string("simd"));
    spec.exp.replications = static_cast<std::uint64_t>(cli.get_int("reps"));
    spec.exp.base_seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    if (cli.get_int("chunks") < 0) throw std::runtime_error("--chunks must be >= 0");
    spec.exp.chunks = static_cast<std::uint64_t>(cli.get_int("chunks"));
    spec.profile = cli.flag("profile");
    spec.classes = cli.flag("classes");
    if (cli.get_int("checkpoint") < 0) throw std::runtime_error("--checkpoint must be >= 0");
    spec.checkpoint_interval = static_cast<std::uint64_t>(cli.get_int("checkpoint"));
    if (spec.checkpoint_interval == 0) {
      spec.checkpoint_interval = std::max<std::uint64_t>(1, spec.game.balls / 10);
    }

    RunMeta meta;
    meta.experiment = scenario.name();
    meta.n = spec.capacities.size();
    meta.total_capacity = C;
    meta.caps_hash = caps_fingerprint(spec.capacities);
    meta.policy = spec.policy.describe();
    meta.choices = spec.game.choices;
    meta.tie_break = cli.get_string("tie-break");
    meta.balls = spec.game.balls;
    meta.batch = spec.game.batch;
    meta.stream = cli.get_string("stream");
    meta.replications = spec.exp.replications;
    meta.seed = spec.exp.base_seed;
    meta.chunks = spec.exp.chunks;
    meta.checkpoint = spec.checkpoint_interval;
    meta.profile = spec.profile;
    meta.classes = spec.classes;
    meta.huge_pages = to_string(spec.game.memory.huge_pages);
    // Record what the resolve stage actually runs (stream v1 has no vector
    // form); provenance only — merge_key masks it like huge_pages.
    meta.simd = spec.game.stream == RngStream::kV2
                    ? std::string(to_string(resolve_simd(spec.game.simd)))
                    : std::string("scalar");
    // Zero the fields this scenario never reads, so shard sets differing
    // only in irrelevant flags still merge / resume.
    scenario.normalize_meta(meta);

    Timer timer;

    std::optional<std::pair<std::uint64_t, std::uint64_t>> shard;
    if (!cli.get_string("shard").empty()) shard = parse_shard(cli.get_string("shard"));

    // --- check-state: validate an existing shard state, run nothing --------
    if (sub == "check-state") {
      return run_check_state(scenario, meta, cli.positionals().front(), shard);
    }

    // --- shard mode: run this slice, write state, exit -----------------------
    if (shard) {
      if (cli.get_string("out").empty()) {
        throw std::runtime_error("--shard requires --out FILE for the state");
      }
      if (!cli.get_string("json").empty()) {
        throw std::runtime_error(
            "--shard writes state to --out, not results; use --json on the merge step");
      }
      spec.shard_index = shard->first;
      spec.shard_count = shard->second;

      // Build the whole document in memory first — the engine pass runs
      // inside the state serialization, and a failure mid-run must not
      // leave a truncated-but-plausible state file at the target path.
      std::ostringstream doc;
      JsonWriter j(doc);
      j.begin_object();
      j.kv("format", kShardFormat);
      j.key("config");
      meta.to_json(j);
      j.kv("shard_index", shard->first);
      j.kv("shard_count", shard->second);
      j.key("state");
      scenario.run_shard(spec, j);
      j.end_object();

      const std::string out_path = cli.get_string("out");
      std::ofstream out(out_path);
      if (!out) throw std::runtime_error("cannot open --out file: " + out_path);
      out << doc.str() << "\n";

      const ChunkLayout layout = make_chunk_layout(spec.exp.replications, spec.exp.chunks);
      const auto [first, last] =
          shard_chunk_range(layout.chunk_count, shard->first, shard->second);
      std::cout << "shard " << shard->first << "/" << shard->second << ": wrote " << out_path
                << " (" << (last - first) << " of " << layout.chunk_count
                << " chunks), elapsed " << TextTable::num(timer.seconds(), 2) << "s\n";
      return 0;
    }

    // --- full run: shard 0-of-1 plus the merge, folded in memory ------------
    return report_run(meta, cli.get_string("json"), timer,
                      [&scenario, &spec](const ReportContext& ctx) {
                        scenario.run_and_report(spec, ctx);
                      });
  } catch (const std::exception& e) {
    std::cerr << "nubb_run: " << tool::error_text(e) << "\n";
    return 1;
  }
}
