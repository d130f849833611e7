// Edge cases the MiniSAST lexer shares with vdlint's C++ scanner now that
// both run on lint::SourceCursor: CRLF line accounting, unterminated
// literals at EOF, comments that run to EOF, and pathological identifier
// lengths. Guarded by an E17-export byte-identity digest — the lexer
// rewrite onto the shared cursor must not move a single byte of the
// study's real-analyzer export.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "cache/hash.h"
#include "cli/driver.h"
#include "experiments.h"
#include "sast/lexer.h"

namespace vdbench::sast {
namespace {

TEST(LexerEdgeTest, CrlfSourcesCountLinesLikeLfSources) {
  // The error line proves '\r' was treated as whitespace, not a line.
  try {
    (void)lex("let a = 1;\r\nlet b = 2;\r\nlet s = \"open;");
    FAIL() << "expected LexError";
  } catch (const LexError& error) {
    EXPECT_STREQ(error.what(), "line 3: unterminated string literal");
  }
  const std::vector<Token> tokens = lex("fn f() {\r\n  let x = 3;\r\n}\r\n");
  ASSERT_GE(tokens.size(), 6u);
  EXPECT_EQ(tokens[4].line, 1u);  // '{' still on line 1
  EXPECT_EQ(tokens[5].line, 2u);  // 'let' opens line 2
}

TEST(LexerEdgeTest, UnterminatedStringAtExactEofThrows) {
  try {
    (void)lex("let s = \"runs off the end");
    FAIL() << "expected LexError";
  } catch (const LexError& error) {
    EXPECT_STREQ(error.what(), "line 1: unterminated string literal");
  }
  // A string stopped by a newline reports the line it started on.
  try {
    (void)lex("\n\nlet s = \"broken\nlet t = 1;");
    FAIL() << "expected LexError";
  } catch (const LexError& error) {
    EXPECT_STREQ(error.what(), "line 3: unterminated string literal");
  }
}

TEST(LexerEdgeTest, CommentRunningToEofProducesOnlyEofToken) {
  const std::vector<Token> tokens = lex("# trailing comment with no newline");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].type, TokenType::kEndOfFile);
  const std::vector<Token> after = lex("let a = 1; # same-line comment");
  ASSERT_EQ(after.size(), 6u);
  EXPECT_EQ(after[5].type, TokenType::kEndOfFile);
}

TEST(LexerEdgeTest, MaximalLengthIdentifiersSurviveIntact) {
  const std::string long_name(4096, 'x');
  const std::vector<Token> tokens = lex("let " + long_name + " = 1;");
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[1].type, TokenType::kIdent);
  EXPECT_EQ(tokens[1].text, long_name);
  // Keyword prefixes embedded in longer identifiers stay identifiers.
  const std::vector<Token> keywordish = lex("let fnord = returned;");
  EXPECT_EQ(keywordish[1].type, TokenType::kIdent);
  EXPECT_EQ(keywordish[1].text, "fnord");
  EXPECT_EQ(keywordish[3].type, TokenType::kIdent);
  EXPECT_EQ(keywordish[3].text, "returned");
}

// The lexer feeds E17's real-analyzer study; its tokenisation is part of
// the byte-identity surface. This digest pins the full --json-out export
// of e17 under the logical clock. If an INTENTIONAL experiment or export
// change moves it, rerun this test and update the constant from the
// failure message; an unintentional move is a determinism regression.
inline constexpr std::uint64_t kE17ExportDigest = 0x7f0e1f911aa755b4ULL;

TEST(LexerEdgeTest, E17ExportBytesMatchRecordedDigest) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "vdlint_e17_digest_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  cli::DriverOptions options;
  options.experiments = "e17";
  options.quiet = true;
  options.cache_dir = (dir / "cache").string();
  options.manifest_path = (dir / "manifest.json").string();
  options.artifact_dir = dir.string();
  options.json_out = (dir / "export.json").string();
  options.threads = 1;
  std::uint64_t tick = 0;
  options.clock = [&tick] { return ++tick; };

  const cli::ExperimentRegistry registry = bench::study_registry();
  const cli::RunOutcome outcome =
      cli::run_driver(registry, options, std::cout);
  ASSERT_EQ(outcome.exit_code, 0);

  std::ifstream in(dir / "export.json", std::ios::binary);
  const std::string bytes{std::istreambuf_iterator<char>(in), {}};
  ASSERT_FALSE(bytes.empty());
  const std::uint64_t digest = cache::fnv1a64(bytes);
  EXPECT_EQ(digest, kE17ExportDigest)
      << "e17 export digest changed: 0x" << std::hex << digest
      << " — every byte of the export moved; if intentional, update "
         "kE17ExportDigest in tests/sast/lexer_edge_test.cpp";
  fs::remove_all(dir);
}

}  // namespace
}  // namespace vdbench::sast
