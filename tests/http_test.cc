// Unit tests for the dependency-free HTTP/1.1 layer (DESIGN.md §15):
// incremental parsing across arbitrary chunk boundaries, keep-alive
// and pipelining, the size caps a socket peer could abuse, and the
// exact error statuses (400/413/431/501) each kind of damage earns.

#include "server/http.h"

#include <gtest/gtest.h>

#include <string>

namespace rox::server {
namespace {

HttpRequest ParseAll(HttpParser& p, const std::string& bytes) {
  p.Feed(bytes.data(), bytes.size());
  EXPECT_TRUE(p.HasRequest()) << "parser did not complete";
  return p.TakeRequest();
}

TEST(HttpParserTest, ParsesSimpleGet) {
  HttpParser p;
  HttpRequest r = ParseAll(p, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(r.method, "GET");
  EXPECT_EQ(r.target, "/healthz");
  EXPECT_EQ(r.version, "HTTP/1.1");
  EXPECT_TRUE(r.body.empty());
  EXPECT_FALSE(r.WantsClose());
}

TEST(HttpParserTest, ParsesPostWithBody) {
  HttpParser p;
  HttpRequest r = ParseAll(p,
                           "POST /query HTTP/1.1\r\n"
                           "Content-Length: 11\r\n"
                           "X-Client-Tag: t1\r\n"
                           "\r\n"
                           "hello world");
  EXPECT_EQ(r.method, "POST");
  EXPECT_EQ(r.body, "hello world");
  ASSERT_NE(r.FindHeader("x-client-tag"), nullptr);  // case-insensitive
  EXPECT_EQ(*r.FindHeader("X-CLIENT-TAG"), "t1");
}

TEST(HttpParserTest, ByteAtATimeFeedingReachesTheSameRequest) {
  const std::string bytes =
      "POST /query HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
  HttpParser p;
  for (char c : bytes) {
    EXPECT_FALSE(p.failed());
    p.Feed(&c, 1);
  }
  ASSERT_TRUE(p.HasRequest());
  HttpRequest r = p.TakeRequest();
  EXPECT_EQ(r.target, "/query");
  EXPECT_EQ(r.body, "abcd");
}

TEST(HttpParserTest, PipelinedRequestsComeOutInOrder) {
  HttpParser p;
  const std::string two =
      "POST /query HTTP/1.1\r\nContent-Length: 2\r\n\r\nq1"
      "GET /stats HTTP/1.1\r\n\r\n";
  p.Feed(two.data(), two.size());
  ASSERT_TRUE(p.HasRequest());
  HttpRequest first = p.TakeRequest();
  EXPECT_EQ(first.body, "q1");
  // Taking the first request parses the buffered second one.
  ASSERT_TRUE(p.HasRequest());
  HttpRequest second = p.TakeRequest();
  EXPECT_EQ(second.method, "GET");
  EXPECT_EQ(second.target, "/stats");
}

TEST(HttpParserTest, ConnectionCloseAndHttp10Semantics) {
  HttpParser p;
  HttpRequest r =
      ParseAll(p, "GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_TRUE(r.WantsClose());
  HttpRequest r10 = ParseAll(p, "GET / HTTP/1.0\r\n\r\n");
  EXPECT_TRUE(r10.WantsClose());  // 1.0 default is close
  HttpRequest r10ka =
      ParseAll(p, "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
  EXPECT_FALSE(r10ka.WantsClose());
}

TEST(HttpParserTest, MalformedRequestLineIs400) {
  HttpParser p;
  const std::string bad = "GET_NO_TARGET\r\n\r\n\r\n";
  p.Feed(bad.data(), bad.size());
  ASSERT_TRUE(p.failed());
  EXPECT_EQ(p.error_status(), 400);
}

TEST(HttpParserTest, UnsupportedVersionIs400) {
  HttpParser p;
  const std::string bad = "GET / HTTP/2.0\r\n\r\n";
  p.Feed(bad.data(), bad.size());
  ASSERT_TRUE(p.failed());
  EXPECT_EQ(p.error_status(), 400);
}

TEST(HttpParserTest, BadContentLengthIs400) {
  HttpParser p;
  const std::string bad =
      "POST /query HTTP/1.1\r\nContent-Length: banana\r\n\r\n";
  p.Feed(bad.data(), bad.size());
  ASSERT_TRUE(p.failed());
  EXPECT_EQ(p.error_status(), 400);
}

// Content-Length is 1*DIGIT: a signed value is malformed (400), not a
// length of 0 or 2 and not an oversized body (413).
TEST(HttpParserTest, SignedContentLengthIs400) {
  for (const char* value : {"-0", "+2", "-1"}) {
    SCOPED_TRACE(value);
    HttpParser p;
    const std::string bad = std::string("POST /query HTTP/1.1\r\n") +
                            "Content-Length: " + value + "\r\n\r\nab";
    p.Feed(bad.data(), bad.size());
    ASSERT_TRUE(p.failed());
    EXPECT_EQ(p.error_status(), 400);
  }
}

// Disagreeing duplicates must not frame the body by the first one: the
// remaining bytes would be parsed as a pipelined request a proxy never
// saw (the request-smuggling shape).
TEST(HttpParserTest, ConflictingContentLengthsAre400) {
  HttpParser p;
  const std::string bad =
      "POST /query HTTP/1.1\r\nContent-Length: 2\r\n"
      "Content-Length: 40\r\n\r\n"
      "abGET /admin HTTP/1.1\r\nHost: x\r\n\r\n";
  p.Feed(bad.data(), bad.size());
  ASSERT_TRUE(p.failed());
  EXPECT_EQ(p.error_status(), 400);
  EXPECT_FALSE(p.HasRequest());
}

TEST(HttpParserTest, IdenticalDuplicateContentLengthsFrameOnce) {
  HttpParser p;
  HttpRequest r = ParseAll(p,
                           "POST /query HTTP/1.1\r\nContent-Length: 4\r\n"
                           "content-length: 4\r\n\r\nabcd");
  EXPECT_EQ(r.body, "abcd");
  EXPECT_FALSE(p.failed());
}

TEST(HttpParserTest, HeaderFoldingIs400) {
  HttpParser p;
  const std::string bad =
      "GET / HTTP/1.1\r\nX-A: one\r\n two\r\n\r\n";
  p.Feed(bad.data(), bad.size());
  ASSERT_TRUE(p.failed());
  EXPECT_EQ(p.error_status(), 400);
}

TEST(HttpParserTest, OversizedBodyIs413) {
  HttpParserLimits limits;
  limits.max_body_bytes = 16;
  HttpParser p(limits);
  const std::string bad =
      "POST /query HTTP/1.1\r\nContent-Length: 17\r\n\r\n";
  p.Feed(bad.data(), bad.size());
  ASSERT_TRUE(p.failed());
  EXPECT_EQ(p.error_status(), 413);
}

TEST(HttpParserTest, OversizedHeadersAre431) {
  HttpParserLimits limits;
  limits.max_header_bytes = 64;
  HttpParser p(limits);
  std::string bad = "GET / HTTP/1.1\r\nX-Big: ";
  bad.append(200, 'x');
  bad += "\r\n\r\n";
  p.Feed(bad.data(), bad.size());
  ASSERT_TRUE(p.failed());
  EXPECT_EQ(p.error_status(), 431);
}

TEST(HttpParserTest, OversizedHeadersWithoutTerminatorStillFail) {
  // The peer streams header bytes forever without the blank line; the
  // parser must not buffer unboundedly waiting for it.
  HttpParserLimits limits;
  limits.max_header_bytes = 64;
  HttpParser p(limits);
  std::string drip = "GET / HTTP/1.1\r\nX-Big: ";
  drip.append(100, 'x');
  p.Feed(drip.data(), drip.size());
  ASSERT_TRUE(p.failed());
  EXPECT_EQ(p.error_status(), 431);
}

TEST(HttpParserTest, TransferEncodingIs501) {
  HttpParser p;
  const std::string bad =
      "POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
  p.Feed(bad.data(), bad.size());
  ASSERT_TRUE(p.failed());
  EXPECT_EQ(p.error_status(), 501);
}

TEST(HttpParserTest, ErrorLatchesAgainstFurtherInput) {
  HttpParser p;
  const std::string bad = "BROKEN\r\n\r\n";
  p.Feed(bad.data(), bad.size());
  ASSERT_TRUE(p.failed());
  const std::string fine = "GET / HTTP/1.1\r\n\r\n";
  p.Feed(fine.data(), fine.size());
  EXPECT_TRUE(p.failed());
  EXPECT_FALSE(p.HasRequest());
}

TEST(HttpResponseTest, BuildsFramedResponse) {
  std::string resp = BuildHttpResponse(200, "application/json",
                                       "{\"x\": 1}", /*keep_alive=*/true);
  EXPECT_NE(resp.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(resp.find("Content-Length: 8\r\n"), std::string::npos);
  EXPECT_NE(resp.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_EQ(resp.substr(resp.size() - 8), "{\"x\": 1}");

  std::string err =
      BuildHttpResponse(429, "application/json", "{}", /*keep_alive=*/false);
  EXPECT_NE(err.find("HTTP/1.1 429 Too Many Requests\r\n"),
            std::string::npos);
  EXPECT_NE(err.find("Connection: close\r\n"), std::string::npos);
}

}  // namespace
}  // namespace rox::server
