// Tests for the CVSS feed, report diffing, file helpers, and the CLI
// subcommands (driven in-process through RunXxxCommand).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>

#include "src/agent/report_diff.h"
#include "src/agent/sia_audit.h"
#include "src/cli/commands.h"
#include "src/deps/cvss.h"
#include "src/deps/depdb.h"
#include "src/util/file.h"

namespace indaas {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// --- File helpers ---

TEST(FileTest, RoundTrip) {
  std::string path = TempPath("file_roundtrip.txt");
  ASSERT_TRUE(WriteFile(path, "hello\nworld").ok());
  auto contents = ReadFile(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, "hello\nworld");
}

TEST(FileTest, MissingFileErrors) {
  EXPECT_FALSE(ReadFile("/nonexistent/definitely/missing").ok());
}

TEST(FileTest, EmptyFile) {
  std::string path = TempPath("empty.txt");
  ASSERT_TRUE(WriteFile(path, "").ok());
  auto contents = ReadFile(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->empty());
}

// --- CVSS feed ---

TEST(CvssTest, ParsesFeed) {
  const char* kFeed = R"(
# vulnerability feed
openssl 1.0.1e 7.5   # heartbleed-era
libc6   2.13-38 5.0
)";
  auto entries = ParseCvssFeed(kFeed);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[0].package, "openssl");
  EXPECT_EQ((*entries)[0].version, "1.0.1e");
  EXPECT_DOUBLE_EQ((*entries)[0].base_score, 7.5);
}

TEST(CvssTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseCvssFeed("openssl 1.0.1e").ok());         // missing score
  EXPECT_FALSE(ParseCvssFeed("openssl 1.0.1e eleven").ok());  // non-numeric
  EXPECT_FALSE(ParseCvssFeed("openssl 1.0.1e 11.0").ok());    // out of range
  EXPECT_FALSE(ParseCvssFeed("openssl 1.0.1e -1").ok());
}

TEST(CvssTest, AppliesToModel) {
  FailureProbabilityModel model(0.01);
  ASSERT_TRUE(LoadCvssFeed("openssl 1.0.1e 10.0\nzlib1g 1.2.7 2.0\n", model, 0.3).ok());
  EXPECT_DOUBLE_EQ(model.Lookup("pkg:openssl=1.0.1e"), 0.3);   // 10/10 * 0.3
  EXPECT_DOUBLE_EQ(model.Lookup("pkg:zlib1g=1.2.7"), 0.06);    // 2/10 * 0.3
  EXPECT_DOUBLE_EQ(model.Lookup("pkg:other=1"), 0.01);         // untouched
}

TEST(CvssTest, RejectsBadMaxProb) {
  FailureProbabilityModel model;
  EXPECT_FALSE(ApplyCvssFeed({{"p", "1", 5.0}}, model, 1.5).ok());
}

// --- Report diffing ---

// An audit whose table holds the groups' names in sorted order, so each
// group's ids ascend.
DeploymentAudit MakeAudit(std::vector<std::string> servers,
                          const std::vector<std::vector<std::string>>& groups,
                          size_t unexpected) {
  DeploymentAudit audit;
  audit.servers = std::move(servers);
  std::set<std::string> names;
  for (const auto& group : groups) {
    names.insert(group.begin(), group.end());
  }
  audit.components.assign(names.begin(), names.end());
  for (const auto& group : groups) {
    DeploymentAudit::RankedGroup ranked;
    for (const std::string& name : group) {
      ranked.ids.push_back(static_cast<uint32_t>(
          std::lower_bound(audit.components.begin(), audit.components.end(), name) -
          audit.components.begin()));
    }
    std::sort(ranked.ids.begin(), ranked.ids.end());
    audit.ranked_groups.push_back(std::move(ranked));
  }
  audit.unexpected_rgs = unexpected;
  return audit;
}

TEST(ReportDiffTest, DetectsAppearedGroups) {
  SiaAuditReport before;
  before.deployments.push_back(MakeAudit({"S1", "S2"}, {{"a", "b"}}, 0));
  SiaAuditReport after;
  after.deployments.push_back(MakeAudit({"S2", "S1"}, {{"a", "b"}, {"switch"}}, 1));
  AuditDiff diff = DiffSiaReports(before, after);
  ASSERT_EQ(diff.deployments.size(), 1u);
  EXPECT_TRUE(diff.HasRegressions());
  ASSERT_EQ(diff.deployments[0].appeared.size(), 1u);
  EXPECT_EQ(diff.deployments[0].appeared[0], (std::vector<std::string>{"switch"}));
  EXPECT_TRUE(diff.deployments[0].disappeared.empty());
  std::string rendered = RenderAuditDiff(diff);
  EXPECT_NE(rendered.find("REGRESSION"), std::string::npos);
  EXPECT_NE(rendered.find("+ new RG {switch}"), std::string::npos);
}

TEST(ReportDiffTest, QuietWhenUnchanged) {
  SiaAuditReport report;
  report.deployments.push_back(MakeAudit({"S1", "S2"}, {{"a"}}, 1));
  AuditDiff diff = DiffSiaReports(report, report);
  EXPECT_FALSE(diff.HasRegressions());
  EXPECT_EQ(RenderAuditDiff(diff), "no changes\n");
}

TEST(ReportDiffTest, TracksDriftedDeployments) {
  SiaAuditReport before;
  before.deployments.push_back(MakeAudit({"S1", "S2"}, {}, 0));
  SiaAuditReport after;
  after.deployments.push_back(MakeAudit({"S1", "S3"}, {}, 0));
  AuditDiff diff = DiffSiaReports(before, after);
  EXPECT_TRUE(diff.deployments.empty());
  ASSERT_EQ(diff.only_in_before.size(), 1u);
  ASSERT_EQ(diff.only_in_after.size(), 1u);
  EXPECT_FALSE(diff.HasRegressions());
}

TEST(ReportDiffTest, ResolvedGroupsAreNotRegressions) {
  SiaAuditReport before;
  before.deployments.push_back(MakeAudit({"S1", "S2"}, {{"switch"}, {"a", "b"}}, 1));
  SiaAuditReport after;
  after.deployments.push_back(MakeAudit({"S1", "S2"}, {{"a", "b"}}, 0));
  AuditDiff diff = DiffSiaReports(before, after);
  EXPECT_FALSE(diff.HasRegressions());
  ASSERT_EQ(diff.deployments[0].disappeared.size(), 1u);
}

// --- CLI commands end-to-end ---

char** MakeArgv(std::vector<std::string>& storage) {
  static std::vector<char*> pointers;
  pointers.clear();
  for (auto& arg : storage) {
    pointers.push_back(arg.data());
  }
  return pointers.data();
}

TEST(CliTest, CollectThenAuditThenDot) {
  std::string depdb = TempPath("cli_depdb.txt");
  std::vector<std::string> collect_args = {"collect", "--infra=lab", "--out=" + depdb};
  ASSERT_TRUE(RunCollectCommand(static_cast<int>(collect_args.size()), MakeArgv(collect_args))
                  .ok());
  auto written = ReadFile(depdb);
  ASSERT_TRUE(written.ok());
  DepDb db;
  ASSERT_TRUE(db.ImportText(*written).ok());
  EXPECT_GT(db.NetworkCount(), 0u);
  EXPECT_GT(db.HardwareCount(), 0u);

  std::vector<std::string> audit_args = {"audit", "--depdb=" + depdb,
                                         "--deployments=Server1,Server2;Server1,Server3"};
  EXPECT_TRUE(RunAuditCommand(static_cast<int>(audit_args.size()), MakeArgv(audit_args)).ok());

  std::vector<std::string> dot_args = {"dot", "--depdb=" + depdb,
                                       "--deployment=Server1,Server2"};
  EXPECT_TRUE(RunDotCommand(static_cast<int>(dot_args.size()), MakeArgv(dot_args)).ok());
}

TEST(CliTest, AuditWithBaselineDiff) {
  std::string depdb = TempPath("cli_depdb2.txt");
  std::vector<std::string> collect_args = {"collect", "--infra=lab", "--out=" + depdb};
  ASSERT_TRUE(RunCollectCommand(static_cast<int>(collect_args.size()), MakeArgv(collect_args))
                  .ok());
  std::vector<std::string> audit_args = {"audit", "--depdb=" + depdb, "--baseline=" + depdb,
                                         "--deployments=Server1,Server3"};
  EXPECT_TRUE(RunAuditCommand(static_cast<int>(audit_args.size()), MakeArgv(audit_args)).ok());
}

TEST(CliTest, PiaCommand) {
  std::string sets = TempPath("cli_sets.txt");
  ASSERT_TRUE(WriteFile(sets, "A: x, y, z\nB: y, z, w\nC: q\n").ok());
  std::vector<std::string> pia_args = {"pia", "--sets=" + sets, "--group-bits=768",
                                       "--max-redundancy=2"};
  EXPECT_TRUE(RunPiaCommand(static_cast<int>(pia_args.size()), MakeArgv(pia_args)).ok());
}

TEST(CliTest, PiaFromDepDbFiles) {
  std::string db1 = TempPath("cli_prov1.txt");
  std::string db2 = TempPath("cli_prov2.txt");
  ASSERT_TRUE(WriteFile(db1, "<pgm=\"svc\" hw=\"h1\" dep=\"openssl=1.0.1e,zlib1g=1.2\"/>\n").ok());
  ASSERT_TRUE(WriteFile(db2, "<pgm=\"svc\" hw=\"h2\" dep=\"OpenSSL=1.0.1e,libev=4\"/>\n").ok());
  std::vector<std::string> pia_args = {"pia", "--depdbs=CloudA=" + db1 + ";CloudB=" + db2,
                                       "--group-bits=768", "--max-redundancy=2"};
  EXPECT_TRUE(RunPiaCommand(static_cast<int>(pia_args.size()), MakeArgv(pia_args)).ok());
  // --sets and --depdbs are mutually exclusive.
  std::string sets = TempPath("cli_sets2.txt");
  ASSERT_TRUE(WriteFile(sets, "A: x\n").ok());
  std::vector<std::string> both = {"pia", "--sets=" + sets, "--depdbs=A=" + db1};
  EXPECT_FALSE(RunPiaCommand(static_cast<int>(both.size()), MakeArgv(both)).ok());
}

TEST(CliTest, BadUsageErrors) {
  std::vector<std::string> no_depdb = {"audit", "--deployments=S1,S2"};
  EXPECT_FALSE(RunAuditCommand(static_cast<int>(no_depdb.size()), MakeArgv(no_depdb)).ok());
  std::vector<std::string> bad_infra = {"collect", "--infra=marsbase"};
  EXPECT_FALSE(RunCollectCommand(static_cast<int>(bad_infra.size()), MakeArgv(bad_infra)).ok());
  std::vector<std::string> bad_algo = {"audit", "--depdb=x", "--deployments=S1",
                                       "--algorithm=psychic"};
  EXPECT_FALSE(RunAuditCommand(static_cast<int>(bad_algo.size()), MakeArgv(bad_algo)).ok());
  std::vector<std::string> missing_sets = {"pia"};
  EXPECT_FALSE(RunPiaCommand(static_cast<int>(missing_sets.size()), MakeArgv(missing_sets)).ok());
}

TEST(CliTest, GraphWhatIfImportancePipeline) {
  std::string depdb = TempPath("cli_depdb3.txt");
  std::string graph = TempPath("cli_graph.fg");
  std::vector<std::string> collect_args = {"collect", "--infra=lab", "--out=" + depdb};
  ASSERT_TRUE(RunCollectCommand(static_cast<int>(collect_args.size()), MakeArgv(collect_args))
                  .ok());
  std::vector<std::string> graph_args = {"graph", "--depdb=" + depdb,
                                         "--deployment=Server1,Server2", "--out=" + graph};
  ASSERT_TRUE(RunGraphCommand(static_cast<int>(graph_args.size()), MakeArgv(graph_args)).ok());

  std::vector<std::string> whatif_args = {"whatif", "--graph=" + graph,
                                          "--fail=net:switch1"};
  EXPECT_TRUE(RunWhatIfCommand(static_cast<int>(whatif_args.size()), MakeArgv(whatif_args)).ok());
  std::vector<std::string> bad_fail = {"whatif", "--graph=" + graph, "--fail=not-a-component"};
  EXPECT_FALSE(RunWhatIfCommand(static_cast<int>(bad_fail.size()), MakeArgv(bad_fail)).ok());

  std::vector<std::string> importance_args = {"importance", "--graph=" + graph};
  EXPECT_TRUE(
      RunImportanceCommand(static_cast<int>(importance_args.size()), MakeArgv(importance_args))
          .ok());
}

TEST(CliTest, GraphCommandRequiresArgs) {
  std::vector<std::string> args = {"graph", "--deployment=S1"};
  EXPECT_FALSE(RunGraphCommand(static_cast<int>(args.size()), MakeArgv(args)).ok());
  std::vector<std::string> whatif_args = {"whatif"};
  EXPECT_FALSE(RunWhatIfCommand(static_cast<int>(whatif_args.size()), MakeArgv(whatif_args)).ok());
  std::vector<std::string> imp_args = {"importance"};
  EXPECT_FALSE(
      RunImportanceCommand(static_cast<int>(imp_args.size()), MakeArgv(imp_args)).ok());
}

TEST(CliTest, FatTreeInfra) {
  std::string depdb = TempPath("cli_fat.txt");
  std::vector<std::string> collect_args = {"collect", "--infra=fat4", "--out=" + depdb,
                                           "--flows=30"};
  ASSERT_TRUE(RunCollectCommand(static_cast<int>(collect_args.size()), MakeArgv(collect_args))
                  .ok());
  std::vector<std::string> audit_args = {"audit", "--depdb=" + depdb,
                                         "--deployments=pod0-srv0-0,pod1-srv0-0",
                                         "--algorithm=sampling", "--rounds=20000"};
  EXPECT_TRUE(RunAuditCommand(static_cast<int>(audit_args.size()), MakeArgv(audit_args)).ok());
}

}  // namespace
}  // namespace indaas
