// End-to-end tests of the mrlquant_cli binary (path injected by CMake as
// MRLQUANT_CLI_PATH). Exercises both input formats, quantile and rank
// output, and the error paths' exit codes.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stream/file_stream.h"
#include "stream/text_stream.h"

namespace mrl {
namespace {

std::string CliPath() { return MRLQUANT_CLI_PATH; }

// Runs the CLI, captures stdout into a string, returns the exit code.
int RunCli(const std::string& args, std::string* output) {
  std::string out_path = ::testing::TempDir() + "/mrl_cli_out.txt";
  std::string cmd = CliPath() + " " + args + " > " + out_path + " 2>/dev/null";
  int rc = std::system(cmd.c_str());
  output->clear();
  if (std::FILE* f = std::fopen(out_path.c_str(), "r")) {
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      output->append(buf, got);
    }
    std::fclose(f);
  }
  std::remove(out_path.c_str());
  return WEXITSTATUS(rc);
}

TEST(CliTest, TextInputQuantilesAndRanks) {
  std::string path = ::testing::TempDir() + "/mrl_cli_vals.txt";
  std::vector<Value> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(i);
  ASSERT_TRUE(WriteValuesTextFile(path, values).ok());
  std::string out;
  int rc = RunCli("--eps=0.02 --phi=0.5 --rank=250 " + path, &out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("quantile\t0.5\t"), std::string::npos) << out;
  EXPECT_NE(out.find("rank\t250\t"), std::string::npos) << out;
  // The median of 1..1000 at eps=0.02 must print as ~500.
  const std::string prefix = "quantile\t0.5\t";
  std::size_t pos = out.find(prefix);
  ASSERT_NE(pos, std::string::npos);
  double med = std::atof(out.c_str() + pos + prefix.size());
  EXPECT_NEAR(med, 500.0, 25.0);
  std::remove(path.c_str());
}

TEST(CliTest, BinaryInput) {
  std::string path = ::testing::TempDir() + "/mrl_cli_vals.bin";
  std::vector<Value> values;
  for (int i = 0; i < 500; ++i) values.push_back(i * 2.0);
  ASSERT_TRUE(WriteValuesFile(path, values).ok());
  std::string out;
  int rc = RunCli("--format=bin --eps=0.05 --phi=1.0 " + path, &out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("quantile\t1\t998"), std::string::npos) << out;
  std::remove(path.c_str());
}

TEST(CliTest, MissingFileExitsNonZero) {
  std::string out;
  EXPECT_NE(RunCli("/no/such/file.txt", &out), 0);
}

TEST(CliTest, MalformedInputExitsNonZero) {
  std::string path = ::testing::TempDir() + "/mrl_cli_bad.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("1.0\nnope\n", f);
  std::fclose(f);
  std::string out;
  EXPECT_NE(RunCli(path, &out), 0);
  std::remove(path.c_str());
}

TEST(CliTest, BadFlagsExitNonZero) {
  std::string out;
  EXPECT_NE(RunCli("--format=csv /tmp/x", &out), 0);
  EXPECT_NE(RunCli("--wat=1 /tmp/x", &out), 0);
  EXPECT_NE(RunCli("", &out), 0);  // no file

  // Malformed numbers, against a readable file so the flag is the only
  // fault: each value must be a whole token, and the seed an unsigned
  // integer with no sign.
  const std::string path = ::testing::TempDir() + "/mrl_cli_flags.txt";
  ASSERT_TRUE(WriteValuesTextFile(path, {1.0, 2.0, 3.0}).ok());
  EXPECT_EQ(RunCli("--eps=0.01 --delta=1e-4 --seed=7 " + path, &out), 0);
  for (const char* flag : {"--eps=0.01x", "--eps=abc", "--eps=",
                           "--delta=1e-4junk", "--seed=abc", "--seed=-1",
                           "--seed=+1", "--seed=7x",
                           "--seed=18446744073709551616"}) {
    EXPECT_NE(RunCli(std::string(flag) + " " + path, &out), 0) << flag;
  }
  std::remove(path.c_str());
}

TEST(CliTest, EmptyFileExitsNonZero) {
  std::string path = ::testing::TempDir() + "/mrl_cli_empty.txt";
  ASSERT_TRUE(WriteValuesTextFile(path, {}).ok());
  std::string out;
  EXPECT_NE(RunCli(path, &out), 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mrl
