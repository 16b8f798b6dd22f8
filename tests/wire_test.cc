#include "dns/wire.h"

#include <gtest/gtest.h>

#include "dns/rr.h"

namespace dnsttl::dns {
namespace {

Message sample_query() {
  return Message::make_query(0x1234, Name::from_string("a.nic.cl"),
                             RRType::kNS);
}

TEST(WireTest, QueryRoundTrip) {
  Message query = sample_query();
  auto wire = encode(query);
  Message decoded = decode(wire);
  EXPECT_EQ(decoded, query);
}

TEST(WireTest, HeaderFlagsRoundTrip) {
  Message m = sample_query();
  m.flags.qr = true;
  m.flags.aa = true;
  m.flags.tc = true;
  m.flags.ra = true;
  m.flags.rcode = Rcode::kNXDomain;
  m.flags.opcode = Opcode::kUpdate;
  EXPECT_EQ(decode(encode(m)), m);
}

TEST(WireTest, ResponseWithAllSectionsRoundTrips) {
  Message response = Message::make_response(sample_query());
  response.flags.aa = true;
  Name owner = Name::from_string("a.nic.cl");
  response.answers.push_back(make_ns(Name::from_string("cl"), dns::Ttl{3600}, owner));
  response.authorities.push_back(
      make_soa(Name::from_string("cl"), dns::Ttl{3600}, owner, 2019021201));
  response.additionals.push_back(
      make_a(owner, dns::Ttl{43200}, Ipv4::from_string("190.124.27.10")));
  response.additionals.push_back(
      make_aaaa(owner, dns::Ttl{43200}, Ipv6::from_string("2001:1398:1::6002")));
  EXPECT_EQ(decode(encode(response)), response);
}

TEST(WireTest, EveryRdataTypeRoundTrips) {
  Message m = Message::make_response(sample_query());
  Name owner = Name::from_string("test.example");
  m.answers.push_back(make_a(owner, dns::Ttl{60}, Ipv4(1, 2, 3, 4)));
  m.answers.push_back(make_aaaa(owner, dns::Ttl{60}, Ipv6::from_string("::1")));
  m.answers.push_back(make_ns(owner, dns::Ttl{60}, Name::from_string("ns.example")));
  m.answers.push_back(
      make_cname(owner.prepend("www"), dns::Ttl{60}, owner));
  m.answers.push_back(make_soa(owner, dns::Ttl{60}, Name::from_string("ns.example"), 7));
  m.answers.push_back(make_mx(owner, dns::Ttl{60}, 10, Name::from_string("mx.example")));
  m.answers.push_back(make_txt(owner, dns::Ttl{60}, "v=spf1 -all"));
  m.answers.push_back(make_dnskey(owner, dns::Ttl{60}, "AwEAAc3dsA=="));
  RrsigRdata sig;
  sig.type_covered = RRType::kA;
  sig.labels = 2;
  sig.original_ttl = WireTtl{60};
  sig.expiration = 1600000000;
  sig.inception = 1500000000;
  sig.key_tag = 12345;
  sig.signer = owner;
  sig.signature = "fakesig";
  m.answers.push_back(ResourceRecord{owner, RClass::kIN, dns::Ttl{60}, sig});
  EXPECT_EQ(decode(encode(m)), m);
}

TEST(WireTest, LongTxtSplitsIntoCharacterStrings) {
  Message m = Message::make_response(sample_query());
  std::string text(700, 'x');
  m.answers.push_back(make_txt(Name::from_string("t.example"), dns::Ttl{60}, text));
  Message decoded = decode(encode(m));
  EXPECT_EQ(std::get<TxtRdata>(decoded.answers[0].rdata).text, text);
}

TEST(WireTest, CompressionShrinksRepeatedNames) {
  Message m = Message::make_response(sample_query());
  Name zone = Name::from_string("cl");
  for (char c : {'a', 'b', 'c', 'd'}) {
    m.answers.push_back(make_ns(
        zone, dns::Ttl{3600}, Name::from_string(std::string(1, c) + ".nic.cl")));
  }
  std::size_t compressed = encode(m).size();

  // Sum of uncompressed name lengths is strictly larger: each nsdname
  // shares the "nic.cl" suffix.
  std::size_t naive = 0;
  for (const auto& rr : m.answers) {
    naive += std::get<NsRdata>(rr.rdata).nsdname.wire_length();
  }
  EXPECT_LT(compressed, naive + 12 + 40);  // header + fixed RR overhead
}

TEST(WireTest, CompressedNamesDecodeCorrectly) {
  Message m = Message::make_response(sample_query());
  Name zone = Name::from_string("cl");
  m.answers.push_back(make_ns(zone, dns::Ttl{3600}, Name::from_string("a.nic.cl")));
  m.answers.push_back(make_ns(zone, dns::Ttl{3600}, Name::from_string("b.nic.cl")));
  Message decoded = decode(encode(m));
  EXPECT_EQ(std::get<NsRdata>(decoded.answers[1].rdata).nsdname,
            Name::from_string("b.nic.cl"));
}

TEST(WireTest, RejectsTruncatedMessage) {
  auto wire = encode(sample_query());
  wire.resize(wire.size() - 3);
  EXPECT_THROW(decode(wire), WireError);
}

TEST(WireTest, RejectsEmptyBuffer) {
  std::vector<std::uint8_t> empty;
  EXPECT_THROW(decode(empty), WireError);
}

TEST(WireTest, RejectsPointerLoop) {
  // Hand-craft a header + a name that points at itself.
  std::vector<std::uint8_t> wire = {
      0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00,
      0xc0, 0x0c,  // pointer to offset 12 = itself
      0x00, 0x01, 0x00, 0x01,
  };
  EXPECT_THROW(decode(wire), WireError);
}

TEST(WireTest, RejectsForwardPointer) {
  std::vector<std::uint8_t> wire = {
      0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00,
      0xc0, 0x20,  // pointer past the current position
      0x00, 0x01, 0x00, 0x01,
  };
  EXPECT_THROW(decode(wire), WireError);
}

TEST(WireTest, TtlSurvivesRoundTrip) {
  Message m = Message::make_response(sample_query());
  m.answers.push_back(
      make_ns(Name::from_string("uy"), dns::Ttl{172800}, Name::from_string("a.nic.uy")));
  Message decoded = decode(encode(m));
  EXPECT_EQ(decoded.answers[0].ttl, Ttl{172800});
}

// Property-style sweep: messages with varying record counts round-trip.
class WireRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(WireRoundTripTest, RandomishMessagesRoundTrip) {
  int n = GetParam();
  Message m = Message::make_response(sample_query());
  for (int i = 0; i < n; ++i) {
    Name owner = Name::from_string(std::string("h")
                                       .append(std::to_string(i))
                                       .append(".zone")
                                       .append(std::to_string(i % 3))
                                       .append(".example"));
    m.answers.push_back(make_a(owner, static_cast<Ttl>(60 + i * 17),
                               Ipv4(static_cast<std::uint32_t>(i * 2654435761u))));
    if (i % 2 == 0) {
      m.additionals.push_back(
          make_ns(owner.parent(), static_cast<Ttl>(i + 1), owner));
    }
  }
  EXPECT_EQ(decode(encode(m)), m);
}

INSTANTIATE_TEST_SUITE_P(Sweep, WireRoundTripTest,
                         ::testing::Values(0, 1, 2, 5, 13, 40, 100));

}  // namespace
}  // namespace dnsttl::dns
