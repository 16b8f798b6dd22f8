#include "dns/message.h"

#include <stdexcept>

namespace dnsttl::dns {

std::string Question::to_string() const {
  return qname.to_string() + " " + std::string(dns::to_string(qclass)) + " " +
         std::string(dns::to_string(qtype));
}

Message Message::make_query(std::uint16_t id, Name qname, RRType qtype,
                            bool recursion_desired) {
  Message m;
  m.id = id;
  m.flags.rd = recursion_desired;
  m.questions.push_back(Question{std::move(qname), qtype, RClass::kIN});
  return m;
}

void Message::add_edns(std::uint16_t udp_payload_size) {
  OptRdata opt;
  opt.udp_payload_size = udp_payload_size;
  // The OPT owner is the root and its "class" field carries the size; the
  // simulator keeps the size in the rdata and the TTL field zero.
  additionals.push_back(ResourceRecord{Name{}, RClass::kIN, Ttl{0}, opt});
}

std::optional<std::uint16_t> Message::edns_udp_size() const {
  for (const auto& rr : additionals) {
    if (rr.type() == RRType::kOPT) {
      return std::get<OptRdata>(rr.rdata).udp_payload_size;
    }
  }
  return std::nullopt;
}

Message Message::make_response(const Message& query) {
  Message m;
  m.id = query.id;
  m.flags.qr = true;
  m.flags.opcode = query.flags.opcode;
  m.flags.rd = query.flags.rd;
  m.questions = query.questions;
  return m;
}

const std::vector<ResourceRecord>& Message::section(Section s) const {
  switch (s) {
    case Section::kAnswer:
      return answers;
    case Section::kAuthority:
      return authorities;
    case Section::kAdditional:
      return additionals;
    case Section::kQuestion:
      break;
  }
  throw std::invalid_argument("question section holds no records");
}

std::vector<ResourceRecord>& Message::section(Section s) {
  return const_cast<std::vector<ResourceRecord>&>(
      static_cast<const Message*>(this)->section(s));
}

std::optional<RRset> Message::answer_rrset(const Name& name,
                                           RRType type) const {
  std::vector<ResourceRecord> matching;
  for (const auto& rr : answers) {
    if (rr.name == name && rr.type() == type) {
      matching.push_back(rr);
    }
  }
  if (matching.empty()) {
    return std::nullopt;
  }
  return RRset::from_records(matching);
}

const ResourceRecord* Message::first_answer(RRType type) const {
  for (const auto& rr : answers) {
    if (rr.type() == type) {
      return &rr;
    }
  }
  return nullptr;
}

bool Message::is_referral() const {
  return answers.empty() && flags.rcode == Rcode::kNoError &&
         !authorities.empty() && !flags.aa;
}

std::string Message::to_string() const {
  std::string out;
  out += ";; id " + std::to_string(id) + " " +
         std::string(dns::to_string(flags.rcode));
  if (flags.qr) out += " qr";
  if (flags.aa) out += " aa";
  if (flags.tc) out += " tc";
  if (flags.rd) out += " rd";
  if (flags.ra) out += " ra";
  out += "\n;; QUESTION\n";
  for (const auto& q : questions) {
    out.append(";").append(q.to_string()).append("\n");
  }
  auto dump = [&out](const char* title,
                     const std::vector<ResourceRecord>& rrs) {
    if (rrs.empty()) {
      return;
    }
    out += std::string(";; ") + title + "\n";
    for (const auto& rr : rrs) {
      out += rr.to_string() + "\n";
    }
  };
  dump("ANSWER", answers);
  dump("AUTHORITY", authorities);
  dump("ADDITIONAL", additionals);
  return out;
}

}  // namespace dnsttl::dns
