// Fault injection + hardened artifact I/O.
//
// Covers the drbw::fault spec grammar and injector determinism, the atomic
// write-temp-then-rename guarantee (proved by injecting a crash mid-write),
// strict/lenient load semantics over the committed corruption corpus in
// tests/data/, the typed-error taxonomy and its exit-code mapping, and the
// fault sites threaded through the engine and trace loader.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "drbw/fault/injector.hpp"
#include "drbw/ml/decision_tree.hpp"
#include "drbw/pebs/trace_io.hpp"
#include "drbw/sim/engine.hpp"
#include "drbw/util/artifact.hpp"
#include "drbw/util/json.hpp"

namespace drbw {
namespace {

const std::string kDataDir = DRBW_TEST_DATA_DIR;

/// Arms the process-wide injector for one test scope, disarming on exit so
/// no fault plan leaks into the next test.
struct ArmGuard {
  explicit ArmGuard(const std::string& spec) {
    fault::Injector::global().arm(fault::Plan::parse(spec));
  }
  ~ArmGuard() { fault::Injector::global().disarm(); }
  ArmGuard(const ArmGuard&) = delete;
  ArmGuard& operator=(const ArmGuard&) = delete;
};

/// Runs `fn`, expecting it to throw drbw::Error; returns the error's code
/// and (optionally) its message.
template <typename Fn>
ErrorCode code_of(Fn&& fn, std::string* message = nullptr) {
  try {
    fn();
  } catch (const Error& e) {
    if (message != nullptr) *message = e.what();
    return e.code();
  }
  ADD_FAILURE() << "expected drbw::Error to be thrown";
  return ErrorCode::kGeneric;
}

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// ---------------------------------------------------------------- spec ----

TEST(FaultSpec, ParsesAndRoundTrips) {
  const auto plan = fault::Plan::parse(
      "seed=42, pebs.sample:drop:0.25, trace.write:truncate:1");
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.sites.size(), 2u);
  EXPECT_EQ(plan.sites[0].site, "pebs.sample");
  EXPECT_EQ(plan.sites[0].kind, fault::Kind::kDropSample);
  EXPECT_DOUBLE_EQ(plan.sites[0].rate, 0.25);
  EXPECT_EQ(plan.sites[1].kind, fault::Kind::kTruncateFile);

  // The canonical rendering re-parses to the same plan.
  const auto again = fault::Plan::parse(plan.to_string());
  EXPECT_EQ(again.seed, plan.seed);
  ASSERT_EQ(again.sites.size(), plan.sites.size());
  EXPECT_EQ(again.sites[1].site, plan.sites[1].site);
}

TEST(FaultSpec, RejectsMalformedClauses) {
  for (const char* bad :
       {"banana", "a:b", "x:drop:2", "x:drop:-0.5", "x:frobnicate:0.5",
        "seed=abc", ":drop:0.5", "x:drop:notanumber"}) {
    EXPECT_EQ(code_of([&] { fault::Plan::parse(bad); }), ErrorCode::kParse)
        << "spec: " << bad;
  }
}

TEST(FaultSpec, KindTokensRoundTrip) {
  for (const fault::Kind k :
       {fault::Kind::kDropSample, fault::Kind::kCorruptField,
        fault::Kind::kTruncateFile, fault::Kind::kMalformJson,
        fault::Kind::kShortWrite, fault::Kind::kFail}) {
    EXPECT_EQ(fault::kind_from_token(fault::kind_token(k)), k);
  }
  EXPECT_EQ(code_of([] { fault::kind_from_token("explode"); }),
            ErrorCode::kParse);
}

// ------------------------------------------------------------ injector ----

TEST(FaultInjector, DecisionsArePureFunctionsOfKey) {
  fault::Injector injector;
  injector.arm(fault::Plan::parse("seed=7,site.x:drop:0.5"));
  std::vector<bool> forward;
  for (std::uint64_t key = 0; key < 500; ++key) {
    forward.push_back(injector.should_inject("site.x", fault::Kind::kDropSample,
                                             key));
  }
  // Re-querying in reverse order (a stand-in for any parallel schedule)
  // yields the identical decision for every key.
  for (std::uint64_t key = 500; key-- > 0;) {
    EXPECT_EQ(injector.should_inject("site.x", fault::Kind::kDropSample, key),
              forward[key])
        << "key " << key;
  }
  // Rate 0.5 over 500 keys: both outcomes occur.
  const std::size_t fires =
      static_cast<std::size_t>(std::count(forward.begin(), forward.end(), true));
  EXPECT_GT(fires, 100u);
  EXPECT_LT(fires, 400u);
}

TEST(FaultInjector, FreeQueriesFollowOnlyTheGlobalInjector) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with fault compiled out";
  // Arming a private injector must not arm the process-wide queries.
  fault::Injector local;
  local.arm(fault::Plan::parse("seed=1,site.x:drop:1"));
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(fault::should_inject("site.x", fault::Kind::kDropSample, 3));

  fault::Injector::global().arm(fault::Plan::parse("seed=1,site.x:drop:1"));
  EXPECT_TRUE(fault::armed());
  EXPECT_TRUE(fault::should_inject("site.x", fault::Kind::kDropSample, 3));
  local.disarm();
  EXPECT_TRUE(fault::armed());
  fault::Injector::global().disarm();
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(fault::should_inject("site.x", fault::Kind::kDropSample, 3));
}

TEST(FaultInjector, RateEndpointsAreExact) {
  fault::Injector injector;
  injector.arm(fault::Plan::parse("seed=1,a:drop:0,b:drop:1"));
  for (std::uint64_t key = 0; key < 200; ++key) {
    EXPECT_FALSE(injector.should_inject("a", fault::Kind::kDropSample, key));
    EXPECT_TRUE(injector.should_inject("b", fault::Kind::kDropSample, key));
  }
}

TEST(FaultInjector, SiteAndKindMustMatch) {
  fault::Injector injector;
  injector.arm(fault::Plan::parse("seed=1,a:drop:1"));
  EXPECT_FALSE(injector.should_inject("other", fault::Kind::kDropSample, 0));
  EXPECT_FALSE(injector.should_inject("a", fault::Kind::kFail, 0));
  EXPECT_TRUE(injector.should_inject("a", fault::Kind::kDropSample, 0));
  EXPECT_FALSE(fault::Injector{}.should_inject("a", fault::Kind::kDropSample,
                                               0));  // disarmed
}

TEST(FaultInjector, SeedChangesDecisions) {
  fault::Injector a;
  fault::Injector b;
  a.arm(fault::Plan::parse("seed=1,s:drop:0.5"));
  b.arm(fault::Plan::parse("seed=2,s:drop:0.5"));
  std::size_t differing = 0;
  for (std::uint64_t key = 0; key < 200; ++key) {
    differing += a.should_inject("s", fault::Kind::kDropSample, key) !=
                 b.should_inject("s", fault::Kind::kDropSample, key);
  }
  EXPECT_GT(differing, 0u);
}

TEST(FaultInjector, CorruptBitsFlipsExactlyOneBit) {
  fault::Injector injector;
  injector.arm(fault::Plan::parse("seed=3,s:corrupt:1"));
  for (std::uint64_t key = 0; key < 64; ++key) {
    const std::uint64_t value = 0xDEADBEEFCAFEF00DULL + key;
    const std::uint64_t corrupted = injector.corrupt_bits("s", key, value);
    EXPECT_EQ(std::popcount(value ^ corrupted), 1) << "key " << key;
    // Deterministic: the same key flips the same bit.
    EXPECT_EQ(injector.corrupt_bits("s", key, value), corrupted);
  }
}

TEST(FaultInjector, FireCountsTallyPerSiteAndKind) {
  fault::Injector injector;
  injector.arm(fault::Plan::parse("seed=1,s:drop:1,t:fail:1"));
  for (std::uint64_t key = 0; key < 5; ++key) {
    injector.should_inject("s", fault::Kind::kDropSample, key);
  }
  injector.should_inject("t", fault::Kind::kFail, 0);
  const auto counts = injector.fire_counts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0].first, "s:drop");
  EXPECT_EQ(counts[0].second, 5u);
  EXPECT_EQ(counts[1].first, "t:fail");
  EXPECT_EQ(counts[1].second, 1u);
  injector.reset_counts();
  EXPECT_TRUE(injector.fire_counts().empty());
}

// ------------------------------------------------------------ taxonomy ----

TEST(ErrorTaxonomy, ExitCodeMapping) {
  EXPECT_EQ(exit_code_for(ErrorCode::kGeneric), 1);
  EXPECT_EQ(exit_code_for(ErrorCode::kUsage), 64);
  EXPECT_EQ(exit_code_for(ErrorCode::kNotFound), 66);
  EXPECT_EQ(exit_code_for(ErrorCode::kParse), 67);
  EXPECT_EQ(exit_code_for(ErrorCode::kCorruptArtifact), 68);
  EXPECT_EQ(exit_code_for(ErrorCode::kVersionSkew), 69);
  EXPECT_EQ(exit_code_for(ErrorCode::kFaultInjected), 70);
  EXPECT_EQ(exit_code_for(ErrorCode::kIo), 74);
}

TEST(ErrorTaxonomy, ErrorsCarryTheirCode) {
  EXPECT_EQ(Error("x").code(), ErrorCode::kGeneric);
  EXPECT_EQ(Error("x", ErrorCode::kVersionSkew).code(),
            ErrorCode::kVersionSkew);
  EXPECT_STREQ(error_code_name(ErrorCode::kCorruptArtifact),
               "corrupt-artifact");
}

// ---------------------------------------------------------- artifact IO ----

TEST(ArtifactIo, Crc32MatchesKnownVector) {
  EXPECT_EQ(util::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(util::crc32(""), 0u);
}

TEST(ArtifactIo, HeaderRoundTrips) {
  const std::string body = "hello artifact\n";
  const std::string line = util::format_artifact_header("trace", 2, body);
  const auto header = util::parse_artifact_header(line);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->kind, "trace");
  EXPECT_EQ(header->version, 2);
  EXPECT_TRUE(header->has_checksum);
  EXPECT_EQ(header->crc, util::crc32(body));
  EXPECT_EQ(header->bytes, body.size());
}

TEST(ArtifactIo, HeaderParsingIsStrict) {
  // Not a drbw header at all: nullopt, not an error.
  EXPECT_FALSE(util::parse_artifact_header("A,x,1,2").has_value());
  EXPECT_FALSE(util::parse_artifact_header("{\"kind\": 1}").has_value());
  // A drbw header that is malformed: typed parse error.
  for (const char* bad :
       {"#drbw- v1", "#drbw-trace", "#drbw-trace vx", "#drbw-trace v0",
        "#drbw-trace v1 crc32=xyz", "#drbw-trace v1 bytes=12junk",
        "#drbw-trace v1 wat=1"}) {
    EXPECT_EQ(code_of([&] { util::parse_artifact_header(bad); }),
              ErrorCode::kParse)
        << "header: " << bad;
  }
}

TEST(ArtifactIo, AtomicWriteNeverLeavesPartialArtifact) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with -DDRBW_FAULT=OFF";
  namespace fs = std::filesystem;
  const std::string path = ::testing::TempDir() + "/atomic_artifact.txt";
  const std::string tmp = path + ".tmp";
  std::remove(path.c_str());
  std::remove(tmp.c_str());

  const std::string content = "0123456789abcdef0123456789abcdef\n";
  {
    // Injected crash between write and rename: the target path must not
    // appear, and the temp file holds only a prefix.
    ArmGuard guard("seed=1,artifact.write:short-write:1");
    EXPECT_EQ(code_of([&] { util::atomic_write_file(path, content); }),
              ErrorCode::kFaultInjected);
  }
  EXPECT_FALSE(fs::exists(path));
  ASSERT_TRUE(fs::exists(tmp));
  EXPECT_LT(fs::file_size(tmp), content.size());

  // Disarmed, the same write succeeds and the content is complete.
  util::atomic_write_file(path, content);
  EXPECT_EQ(read_all(path), content);

  // A crashed overwrite leaves the previous artifact fully intact.
  {
    ArmGuard guard("seed=1,artifact.write:short-write:1");
    EXPECT_EQ(code_of([&] {
                util::atomic_write_file(path, "replacement that crashes\n");
              }),
              ErrorCode::kFaultInjected);
  }
  EXPECT_EQ(read_all(path), content);
  std::remove(path.c_str());
  std::remove(tmp.c_str());
}

TEST(ArtifactIo, InjectedTraceTruncationIsDetectedOnLoad) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with -DDRBW_FAULT=OFF";
  const std::string path = ::testing::TempDir() + "/truncated_save.csv";
  pebs::Trace trace;
  for (std::uint64_t i = 0; i < 20; ++i) {
    pebs::MemorySample s;
    s.address = 0x1000 + i * 8;
    s.level = pebs::MemLevel::kLocalDram;
    s.latency_cycles = 300.0f;
    s.cycle = i;
    trace.samples.push_back(s);
  }
  {
    ArmGuard guard("seed=5,trace.write:truncate:1");
    pebs::save_trace(path, trace);
  }
  // The header checksums the pristine body, so the injected truncation is
  // indistinguishable from real damage: strict load rejects it...
  EXPECT_EQ(code_of([&] { pebs::load_trace(path); }),
            ErrorCode::kCorruptArtifact);
  // ...and a lenient load recovers the intact prefix, reporting the damage.
  util::LoadStats stats;
  const pebs::Trace recovered =
      pebs::load_trace(path, util::LoadPolicy{util::LoadMode::kLenient}, &stats);
  EXPECT_FALSE(stats.checksum_ok);
  EXPECT_GT(recovered.samples.size(), 0u);
  EXPECT_LT(recovered.samples.size(), trace.samples.size());
  std::remove(path.c_str());
}

TEST(ArtifactIo, MissingInputGetsSiblingHint) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/hint_dir";
  fs::create_directories(dir);
  { std::ofstream(dir + "/alpha_trace.csv") << "x"; }
  { std::ofstream(dir + "/beta_trace.csv") << "x"; }
  std::string message;
  EXPECT_EQ(code_of(
                [&] {
                  util::require_input_file(dir + "/gamma_trace.csv",
                                           "trace file");
                },
                &message),
            ErrorCode::kNotFound);
  EXPECT_NE(message.find("did you mean"), std::string::npos) << message;
  EXPECT_NE(message.find("alpha_trace.csv"), std::string::npos) << message;
  fs::remove_all(dir);
}

TEST(ArtifactIo, LoadPolicyFromName) {
  EXPECT_FALSE(util::load_policy_from_name("strict").lenient());
  EXPECT_TRUE(util::load_policy_from_name("lenient", 0.5).lenient());
  EXPECT_DOUBLE_EQ(util::load_policy_from_name("lenient", 0.5).max_bad_fraction,
                   0.5);
  EXPECT_EQ(code_of([] { util::load_policy_from_name("sometimes"); }),
            ErrorCode::kUsage);
}

// -------------------------------------------------------------- corpus ----

TEST(CorruptionCorpus, TruncatedTraceStrictRejectsLenientRecovers) {
  const std::string path = kDataDir + "/truncated_trace.csv";
  EXPECT_EQ(code_of([&] { pebs::load_trace(path); }),
            ErrorCode::kCorruptArtifact);
  util::LoadStats stats;
  const pebs::Trace recovered =
      pebs::load_trace(path, util::LoadPolicy{util::LoadMode::kLenient}, &stats);
  EXPECT_FALSE(stats.checksum_ok);
  EXPECT_EQ(recovered.events.size(), 1u);     // the A record survives
  EXPECT_GT(recovered.samples.size(), 0u);    // intact prefix recovered
  EXPECT_EQ(stats.records_quarantined, 1u);   // the cut-off line
  EXPECT_EQ(stats.records_seen, stats.records_ok + stats.records_quarantined);
}

TEST(CorruptionCorpus, BitflippedModelStrictRejectsLenientLoads) {
  const std::string path = kDataDir + "/bitflip_model.json";
  std::string message;
  EXPECT_EQ(code_of([&] { ml::Classifier::load(path); }, &message),
            ErrorCode::kCorruptArtifact);
  EXPECT_NE(message.find(path), std::string::npos) << message;
  // The flipped bit lands in a numeric literal, so the JSON still parses:
  // a lenient load tolerates the checksum and yields a usable model.
  const ml::Classifier model = ml::Classifier::load(
      path, util::LoadPolicy{util::LoadMode::kLenient});
  EXPECT_FALSE(model.feature_names().empty());
}

TEST(CorruptionCorpus, WrongVersionHeaderIsVersionSkewInBothModes) {
  const std::string path = kDataDir + "/wrong_version_trace.csv";
  std::string message;
  EXPECT_EQ(code_of([&] { pebs::load_trace(path); }, &message),
            ErrorCode::kVersionSkew);
  EXPECT_NE(message.find("v99"), std::string::npos) << message;
  EXPECT_EQ(code_of([&] {
              pebs::load_trace(path,
                               util::LoadPolicy{util::LoadMode::kLenient});
            }),
            ErrorCode::kVersionSkew);
}

TEST(CorruptionCorpus, EmptyFileIsRejectedInBothModes) {
  const std::string path = kDataDir + "/empty_trace.csv";
  EXPECT_EQ(code_of([&] { pebs::load_trace(path); }), ErrorCode::kParse);
  EXPECT_EQ(code_of([&] {
              pebs::load_trace(path,
                               util::LoadPolicy{util::LoadMode::kLenient});
            }),
            ErrorCode::kParse);
  // As a model it is equally unusable, and the error names the path.
  std::string message;
  EXPECT_EQ(code_of([&] { ml::Classifier::load(path); }, &message),
            ErrorCode::kParse);
  EXPECT_NE(message.find(path), std::string::npos) << message;
}

TEST(CorruptionCorpus, MidRecordEofStrictNamesTheLine) {
  const std::string path = kDataDir + "/midrecord_trace.csv";
  std::string message;
  EXPECT_EQ(code_of([&] { pebs::load_trace(path); }, &message),
            ErrorCode::kParse);
  // Path, 1-based line number of the cut-off record, and the arity problem.
  EXPECT_NE(message.find(path + ":9"), std::string::npos) << message;
  EXPECT_NE(message.find("fields"), std::string::npos) << message;

  util::LoadStats stats;
  const pebs::Trace recovered =
      pebs::load_trace(path, util::LoadPolicy{util::LoadMode::kLenient}, &stats);
  EXPECT_EQ(stats.records_seen, 8u);
  EXPECT_EQ(stats.records_quarantined, 1u);
  EXPECT_EQ(recovered.events.size(), 1u);
  EXPECT_EQ(recovered.samples.size(), 6u);
}

TEST(CorruptionCorpus, QuarantineCountsAreExactAndStable) {
  const std::string path = kDataDir + "/malformed_records_trace.csv";
  util::LoadStats first;
  util::LoadStats second;
  const util::LoadPolicy lenient{util::LoadMode::kLenient};
  (void)pebs::load_trace(path, lenient, &first);
  (void)pebs::load_trace(path, lenient, &second);
  EXPECT_EQ(first.records_seen, 10u);
  EXPECT_EQ(first.records_quarantined, 2u);
  EXPECT_EQ(first.records_ok, 8u);
  EXPECT_EQ(second.records_quarantined, first.records_quarantined);
  EXPECT_EQ(second.records_ok, first.records_ok);
}

TEST(CorruptionCorpus, ShortBinaryBodyStrictRejectsLenientQuarantines) {
  // A v3 binary trace whose body was cut 300 bytes (10 samples) short, with
  // the header recomputed over the short body: the crc passes and only the
  // structural length check can catch the damage.
  const std::string path = kDataDir + "/short_binary_trace.bin";
  std::string message;
  EXPECT_EQ(code_of([&] { pebs::load_trace(path); }, &message),
            ErrorCode::kCorruptArtifact);
  EXPECT_NE(message.find(path), std::string::npos) << message;

  util::LoadStats first;
  util::LoadStats second;
  const util::LoadPolicy lenient{util::LoadMode::kLenient};
  (void)pebs::load_trace(path, lenient, &first);
  (void)pebs::load_trace(path, lenient, &second);
  EXPECT_EQ(first.records_seen, 69u);  // 9 events + 60 declared samples
  EXPECT_EQ(first.records_quarantined, 10u);
  EXPECT_EQ(first.records_ok, 59u);
  EXPECT_TRUE(first.checksum_ok);  // the header matches the short body
  EXPECT_EQ(second.records_quarantined, first.records_quarantined);
  EXPECT_EQ(second.records_ok, first.records_ok);
}

TEST(CorruptionCorpus, MissingShardStrictNotFoundLenientQuarantines) {
  const std::string path = kDataDir + "/sharded_trace_missing.bin";
  std::string message;
  EXPECT_EQ(code_of([&] { pebs::load_trace(path); }, &message),
            ErrorCode::kNotFound);
  EXPECT_NE(message.find("shard-001-of-003"), std::string::npos) << message;

  util::LoadStats first;
  util::LoadStats second;
  const util::LoadPolicy tolerant{util::LoadMode::kLenient, 0.5};
  const pebs::Trace a = pebs::load_trace(path, tolerant, &first);
  const pebs::Trace b = pebs::load_trace(path, tolerant, &second);
  EXPECT_EQ(first.records_seen, 69u);
  EXPECT_EQ(first.records_quarantined, 23u);  // shard 1: 3 events, 20 samples
  EXPECT_FALSE(first.checksum_ok);
  EXPECT_EQ(a.samples.size(), 40u);
  EXPECT_EQ(a.samples.size(), b.samples.size());
  EXPECT_EQ(second.records_quarantined, first.records_quarantined);
}

TEST(CorruptionCorpus, BitflippedShardStrictRejectsLenientSalvages) {
  const std::string path = kDataDir + "/sharded_trace_bitflip.bin";
  EXPECT_EQ(code_of([&] { pebs::load_trace(path); }),
            ErrorCode::kCorruptArtifact);

  util::LoadStats first;
  util::LoadStats second;
  const util::LoadPolicy lenient{util::LoadMode::kLenient};
  (void)pebs::load_trace(path, lenient, &first);
  (void)pebs::load_trace(path, lenient, &second);
  EXPECT_EQ(first.records_seen, 69u);
  EXPECT_LE(first.records_quarantined, 1u);  // at most the one flipped record
  EXPECT_FALSE(first.checksum_ok);
  EXPECT_EQ(second.records_quarantined, first.records_quarantined);
  EXPECT_EQ(second.records_ok, first.records_ok);
}

TEST(CorruptionCorpus, SwappedShardIsSetInconsistencyInBothModes) {
  // Shard 001 is internally valid but not the shard the index committed:
  // per-record salvage cannot repair that, so lenient quarantines it whole.
  const std::string path = kDataDir + "/sharded_trace_swap.bin";
  std::string message;
  EXPECT_EQ(code_of([&] { pebs::load_trace(path); }, &message),
            ErrorCode::kCorruptArtifact);
  EXPECT_NE(message.find("does not match the set index"), std::string::npos)
      << message;

  util::LoadStats stats;
  const util::LoadPolicy tolerant{util::LoadMode::kLenient, 0.5};
  const pebs::Trace merged = pebs::load_trace(path, tolerant, &stats);
  EXPECT_EQ(stats.records_quarantined, 23u);
  EXPECT_FALSE(stats.checksum_ok);
  EXPECT_EQ(merged.samples.size(), 40u);
}

TEST(CorruptionCorpus, QuarantineCapEscalatesToCorruptArtifact) {
  const std::string path = kDataDir + "/malformed_records_trace.csv";
  // 2 of 10 records are bad (20%): a 10% cap must escalate.
  util::LoadPolicy tight{util::LoadMode::kLenient, 0.1};
  std::string message;
  EXPECT_EQ(code_of([&] { pebs::load_trace(path, tight); }, &message),
            ErrorCode::kCorruptArtifact);
  EXPECT_NE(message.find("2 of 10"), std::string::npos) << message;
}

// ----------------------------------------------------- json diagnostics ----

TEST(JsonDiagnostics, ParseErrorsCarryLineColumnAndToken) {
  std::string message;
  EXPECT_EQ(code_of([] { Json::parse("{\n  \"a\": 12,\n  \"b\": oops\n}"); },
                    &message),
            ErrorCode::kParse);
  EXPECT_NE(message.find("line 3:"), std::string::npos) << message;
  EXPECT_NE(message.find("oops"), std::string::npos) << message;

  EXPECT_EQ(code_of([] { Json::parse("[1, 2"); }, &message),
            ErrorCode::kParse);
  EXPECT_NE(message.find("line 1:"), std::string::npos) << message;
}

// ------------------------------------------------------- engine sites ----

sim::RunResult run_sim(std::uint64_t seed) {
  const auto machine = topology::Machine::xeon_e5_4650();
  mem::AddressSpace space(machine);
  const auto obj = space.allocate("fault.c:1 data", 16 << 20,
                                  mem::PlacementSpec::bind(0));
  std::vector<sim::SimThread> threads{{0, 0}};
  sim::Phase phase{"main",
                   {sim::ThreadWork{{sim::seq_read(obj, 200'000)}, 1.0}}};
  sim::EngineConfig config;
  config.seed = seed;
  sim::Engine engine(machine, space, config);
  return engine.run(threads, {phase});
}

TEST(EngineFaultSites, EpochFailThrowsTypedError) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with -DDRBW_FAULT=OFF";
  ArmGuard guard("seed=1,engine.epoch:fail:1");
  std::string message;
  EXPECT_EQ(code_of([] { run_sim(7); }, &message), ErrorCode::kFaultInjected);
  EXPECT_NE(message.find("epoch"), std::string::npos) << message;
}

TEST(EngineFaultSites, SampleDropsAreDeterministicAndContentKeyed) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with -DDRBW_FAULT=OFF";
  const std::size_t baseline = run_sim(7).samples.size();
  ASSERT_GT(baseline, 0u);
  ArmGuard guard("seed=11,pebs.sample:drop:0.5");
  const auto first = run_sim(7);
  const auto second = run_sim(7);
  EXPECT_LT(first.samples.size(), baseline);
  ASSERT_EQ(first.samples.size(), second.samples.size());
  for (std::size_t i = 0; i < first.samples.size(); ++i) {
    EXPECT_EQ(first.samples[i].address, second.samples[i].address);
    EXPECT_EQ(first.samples[i].cycle, second.samples[i].cycle);
  }
}

TEST(EngineFaultSites, SampleCorruptionFlipsAddressBits) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with -DDRBW_FAULT=OFF";
  ArmGuard guard("seed=11,pebs.sample:corrupt:1");
  const auto corrupted = run_sim(7);
  fault::Injector::global().disarm();
  const auto clean = run_sim(7);
  ASSERT_EQ(corrupted.samples.size(), clean.samples.size());
  std::size_t changed = 0;
  for (std::size_t i = 0; i < clean.samples.size(); ++i) {
    if (corrupted.samples[i].address != clean.samples[i].address) {
      EXPECT_EQ(std::popcount(corrupted.samples[i].address ^
                              clean.samples[i].address),
                1);
      ++changed;
    }
  }
  EXPECT_EQ(changed, clean.samples.size());  // rate 1: every sample damaged
}

// ------------------------------------------------------ trace.read site ----

TEST(TraceReadSite, CorruptionQuarantinesDeterministically) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with -DDRBW_FAULT=OFF";
  const std::string path = ::testing::TempDir() + "/read_fault_trace.csv";
  pebs::Trace trace;
  for (std::uint64_t i = 0; i < 40; ++i) {
    pebs::MemorySample s;
    s.address = 0x2000 + i * 64;
    s.level = i % 2 ? pebs::MemLevel::kRemoteDram : pebs::MemLevel::kLocalDram;
    s.latency_cycles = 600.0f;
    s.cycle = i * 10;
    trace.samples.push_back(s);
  }
  pebs::save_trace(path, trace);

  ArmGuard guard("seed=21,trace.read:corrupt:0.2");
  const util::LoadPolicy lenient{util::LoadMode::kLenient, 0.5};
  util::LoadStats first;
  util::LoadStats second;
  (void)pebs::load_trace(path, lenient, &first);
  (void)pebs::load_trace(path, lenient, &second);
  EXPECT_GT(first.records_quarantined, 0u);
  EXPECT_EQ(first.records_quarantined, second.records_quarantined);
  EXPECT_EQ(first.records_ok, second.records_ok);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace drbw
