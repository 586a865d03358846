// Deterministic fuzz-lite: every text/byte-level entry point must either
// succeed or return a clean error Status on random input — never crash,
// never corrupt state. Seeds are pinned, so failures reproduce.

#include <gtest/gtest.h>
#include <unistd.h>

#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "geom/wkt.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "pack/pack.h"
#include "psql/executor.h"
#include "psql/lexer.h"
#include "psql/parser.h"
#include "rel/catalog.h"
#include "rel/tuple.h"
#include "rtree/rtree.h"
#include "service/query_service.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "workload/generators.h"
#include "workload/us_catalog.h"

namespace pictdb {
namespace {

std::string RandomText(Random* rng, size_t max_len,
                       const std::string& alphabet) {
  const size_t len = rng->Uniform(max_len + 1);
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(alphabet[rng->Uniform(alphabet.size())]);
  }
  return out;
}

const std::string kQueryAlphabet =
    "abcdefghijklmnopqrstuvwxyz0123456789 .,'(){}<>=+-*_";

TEST(FuzzLiteTest, LexerNeverCrashes) {
  Random rng(1);
  for (int i = 0; i < 3000; ++i) {
    const std::string text = RandomText(&rng, 60, kQueryAlphabet);
    auto tokens = psql::Tokenize(text);
    if (tokens.ok()) {
      EXPECT_FALSE(tokens->empty());  // always at least kEnd
      EXPECT_EQ(tokens->back().kind, psql::TokenKind::kEnd);
    }
  }
}

TEST(FuzzLiteTest, ParserNeverCrashes) {
  Random rng(2);
  for (int i = 0; i < 3000; ++i) {
    // Bias toward query-shaped text so the parser gets past token 0.
    std::string text = "select ";
    text += RandomText(&rng, 50, kQueryAlphabet);
    (void)psql::Parse(text);          // either ok or clean error
    (void)psql::ParseStatement(text);
  }
}

TEST(FuzzLiteTest, MutatedValidQueriesNeverCrashTheExecutor) {
  storage::InMemoryDiskManager disk(1024);
  storage::BufferPool pool(&disk, 1 << 14);
  rel::Catalog catalog(&pool);
  PICTDB_CHECK_OK(workload::BuildUsCatalog(&catalog, 4));
  psql::Executor exec(&catalog);

  const std::string base =
      "select city,population,loc from cities on us-map "
      "at loc covered-by {-77 +- 8, 39 +- 4} where population > 450000 "
      "order by population desc limit 5";
  Random rng(3);
  for (int i = 0; i < 400; ++i) {
    std::string mutated = base;
    const int edits = 1 + static_cast<int>(rng.Uniform(4));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = rng.Uniform(mutated.size());
      switch (rng.Uniform(3)) {
        case 0:  // replace
          mutated[pos] = kQueryAlphabet[rng.Uniform(kQueryAlphabet.size())];
          break;
        case 1:  // delete
          mutated.erase(pos, 1);
          break;
        default:  // insert
          mutated.insert(pos, 1,
                         kQueryAlphabet[rng.Uniform(kQueryAlphabet.size())]);
          break;
      }
      // push_back, not `= "x"`: GCC 12 flags that assign as an
      // overlapping memcpy (-Wrestrict) in optimized builds.
      if (mutated.empty()) mutated.push_back('x');
    }
    (void)exec.Run(mutated);  // must not crash; errors are fine
  }
  // The catalog must still be fully functional afterwards.
  auto rs = exec.Query("select count(*) from cities");
  ASSERT_TRUE(rs.ok());
  EXPECT_GT(rs->rows[0][0].as_int(), 0);
}

TEST(FuzzLiteTest, WktParserNeverCrashes) {
  Random rng(4);
  const std::string alphabet = "POINTSEGMNBXLYG(),.0123456789- ";
  for (int i = 0; i < 5000; ++i) {
    (void)geom::ParseWkt(RandomText(&rng, 40, alphabet));
  }
}

TEST(FuzzLiteTest, TupleDeserializeNeverCrashesOnRandomBytes) {
  Random rng(5);
  for (int i = 0; i < 5000; ++i) {
    std::string bytes;
    const size_t len = rng.Uniform(100);
    for (size_t b = 0; b < len; ++b) {
      bytes.push_back(static_cast<char>(rng.Uniform(256)));
    }
    (void)rel::Tuple::Deserialize(bytes);  // error or garbage-free tuple
  }
}

TEST(FuzzLiteTest, TupleDeserializeMutatedValidBytes) {
  const rel::Tuple original({rel::Value(std::string("Chicago")),
                             rel::Value(int64_t{2693976}),
                             rel::Value(geom::Geometry(
                                 geom::Point{-87.6, 41.9}))});
  const std::string valid = original.Serialize();
  Random rng(6);
  for (int i = 0; i < 3000; ++i) {
    std::string mutated = valid;
    const size_t pos = rng.Uniform(mutated.size());
    mutated[pos] = static_cast<char>(rng.Uniform(256));
    (void)rel::Tuple::Deserialize(mutated);
  }
}

TEST(FuzzLiteTest, PageTrailerVerifyNeverCrashesOnRandomBytes) {
  constexpr uint32_t kPageSize = 256;
  Random rng(7);
  std::vector<char> page(kPageSize);
  int accepted = 0;
  for (int i = 0; i < 5000; ++i) {
    for (char& c : page) c = static_cast<char>(rng.Uniform(256));
    if (storage::VerifyPageTrailer(page.data(), kPageSize, i).ok()) {
      ++accepted;
    }
  }
  // Random bytes essentially never carry a valid magic+CRC trailer (and
  // are essentially never all-zero).
  EXPECT_EQ(accepted, 0);
}

TEST(FuzzLiteTest, PageTrailerStampVerifyRoundTrip) {
  constexpr uint32_t kPageSize = 256;
  Random rng(8);
  std::vector<char> page(kPageSize);
  for (int i = 0; i < 2000; ++i) {
    for (char& c : page) c = static_cast<char>(rng.Uniform(256));
    storage::StampPageTrailer(page.data(), kPageSize);
    EXPECT_TRUE(storage::VerifyPageTrailer(page.data(), kPageSize).ok());
  }
}

TEST(FuzzLiteTest, PageTrailerDetectsSingleByteMutations) {
  constexpr uint32_t kPageSize = 256;
  Random rng(9);
  std::vector<char> page(kPageSize);
  for (int i = 0; i < 2000; ++i) {
    for (char& c : page) c = static_cast<char>(rng.Uniform(256));
    storage::StampPageTrailer(page.data(), kPageSize);
    const size_t pos = rng.Uniform(kPageSize);
    const char flip = static_cast<char>(1u << rng.Uniform(8));
    page[pos] = static_cast<char>(page[pos] ^ flip);
    const Status st = storage::VerifyPageTrailer(page.data(), kPageSize, i);
    EXPECT_FALSE(st.ok()) << "undetected mutation at byte " << pos;
    EXPECT_TRUE(st.IsDataLoss());
  }
}

TEST(FuzzLiteTest, PageTrailerAcceptsAllZeroPages) {
  // Freshly allocated, never-flushed pages are all zeros and must verify
  // clean (they carry no trailer yet).
  constexpr uint32_t kPageSize = 512;
  std::vector<char> page(kPageSize, 0);
  EXPECT_TRUE(storage::VerifyPageTrailer(page.data(), kPageSize).ok());
}

// ---------------------------------------------------------------------
// Network protocol fuzzing.

std::string RandomBytes(Random* rng, size_t max_len) {
  const size_t len = rng->Uniform(max_len + 1);
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>(rng->Uniform(256)));
  }
  return out;
}

net::Request RandomValidRequest(Random* rng) {
  net::Request request;
  switch (rng->Uniform(5)) {
    case 0:
      request.body = net::WindowRequest{
          geom::Rect(rng->UniformDouble(0, 500), rng->UniformDouble(0, 500),
                     rng->UniformDouble(500, 1000),
                     rng->UniformDouble(500, 1000)),
          rng->Uniform(2) == 1};
      break;
    case 1:
      request.body = net::KnnRequest{
          geom::Point{rng->UniformDouble(0, 1000),
                      rng->UniformDouble(0, 1000)},
          static_cast<uint32_t>(1 + rng->Uniform(8))};
      break;
    case 2:
      request.body = net::PsqlRequest{
          RandomText(rng, 40, kQueryAlphabet)};
      break;
    case 3:
      request.body = net::PingRequest{};
      break;
    default:
      request.body = net::StatsRequest{};
      break;
  }
  request.options.timeout_us = rng->Uniform(2) ? 1'000'000 : 0;
  return request;
}

TEST(FuzzLiteTest, RequestDecoderNeverCrashesOnRandomBytes) {
  Random rng(41);
  constexpr uint8_t kRequestTypes[] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  for (int i = 0; i < 4000; ++i) {
    const std::string bytes = RandomBytes(&rng, 96);
    const auto type = static_cast<net::MsgType>(
        kRequestTypes[rng.Uniform(sizeof(kRequestTypes))]);
    (void)net::DecodeRequestPayload(type, bytes);  // ok or clean error
  }
}

TEST(FuzzLiteTest, ResponseDecoderNeverCrashesOnRandomBytes) {
  Random rng(42);
  constexpr uint8_t kResponseTypes[] = {32, 33, 34, 35, 36, 37, 38, 39};
  for (int i = 0; i < 4000; ++i) {
    const std::string bytes = RandomBytes(&rng, 128);
    const auto type = static_cast<net::MsgType>(
        kResponseTypes[rng.Uniform(sizeof(kResponseTypes))]);
    (void)net::DecodeResponsePayload(type, bytes);
  }
}

/// Seeded frame fuzzer against a LIVE server: random bytes, random-header
/// frames, bit-flipped valid frames, and truncated frames, interleaved
/// over reconnecting sockets. The server must reply with a structured
/// error or close the connection — and afterwards it must still answer a
/// correct window query. Run under ASan in CI like every other test.
TEST(FuzzLiteTest, SeededFrameFuzzerNeverCrashesTheServer) {
  storage::InMemoryDiskManager disk(512);
  storage::BufferPool pool(&disk, /*capacity=*/64, /*shards=*/2);
  Random data_rng(77);
  const auto points =
      workload::UniformPoints(&data_rng, 500, workload::PaperFrame());
  std::vector<storage::Rid> rids;
  rids.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    rids.push_back(storage::Rid{static_cast<storage::PageId>(i), 0});
  }
  auto tree_or = rtree::RTree::Create(&pool);
  ASSERT_TRUE(tree_or.ok());
  rtree::RTree tree = std::move(tree_or).value();
  ASSERT_TRUE(
      pack::PackNearestNeighbor(&tree, pack::MakeLeafEntries(points, rids))
          .ok());
  service::QueryService service(&tree, /*executor=*/nullptr);

  net::ServerOptions options;
  options.unix_path = ::testing::TempDir() + "pictdb_fuzz_" +
                      std::to_string(getpid()) + ".sock";
  net::Server::Bindings bindings;
  bindings.service = &service;
  net::Server server(bindings, options);
  ASSERT_TRUE(server.Start().ok());

  Random rng(4242);
  std::optional<net::Client> client;
  for (int i = 0; i < 400; ++i) {
    if (!client.has_value()) {
      auto connected = net::Client::ConnectUnix(options.unix_path);
      ASSERT_TRUE(connected.ok()) << connected.status().ToString();
      client.emplace(std::move(connected).value());
    }
    std::string bytes;
    switch (i % 4) {
      case 0:  // raw garbage
        bytes = RandomBytes(&rng, 64);
        break;
      case 1: {  // well-formed header, random payload
        const auto type = static_cast<net::MsgType>(1 + rng.Uniform(9));
        bytes = net::EncodeFrame(type, rng.Uniform(4),
                                 static_cast<uint32_t>(i),
                                 RandomBytes(&rng, 48));
        break;
      }
      case 2: {  // valid request frame with 1..4 bit flips
        const net::Request request = RandomValidRequest(&rng);
        bytes = net::EncodeFrame(net::RequestMsgType(request), 0,
                                 static_cast<uint32_t>(i),
                                 net::EncodeRequestPayload(request));
        const size_t flips = 1 + rng.Uniform(4);
        for (size_t f = 0; f < flips; ++f) {
          const size_t pos = rng.Uniform(bytes.size());
          bytes[pos] = static_cast<char>(
              bytes[pos] ^ static_cast<char>(1u << rng.Uniform(8)));
        }
        break;
      }
      default: {  // truncated valid frame
        const net::Request request = RandomValidRequest(&rng);
        const std::string full =
            net::EncodeFrame(net::RequestMsgType(request), 0,
                             static_cast<uint32_t>(i),
                             net::EncodeRequestPayload(request));
        bytes = full.substr(0, rng.Uniform(full.size()));
        break;
      }
    }
    if (!client->SendRaw(bytes).ok()) {
      client.reset();  // server closed the poisoned stream: reconnect
    }
  }
  client.reset();

  // Liveness + correctness after the bombardment.
  auto fresh = net::Client::ConnectUnix(options.unix_path);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_TRUE(fresh->Ping().ok());
  const geom::Rect window(200, 200, 600, 600);
  size_t expected = 0;
  for (const geom::Point& p : points) {
    if (window.Contains(p)) ++expected;
  }
  auto result = fresh->Window(window, false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(std::get<net::HitsResponse>(result->response.body).hits.size(),
            expected);
  EXPECT_GT(server.Stats().protocol_errors, 0u);
  server.Stop();
}

}  // namespace
}  // namespace pictdb
