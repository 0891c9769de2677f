#include "runtime/net/transport.hpp"

namespace pigp::net {

// Default collectives over point-to-point messaging, rank 0 as the hub.
// Two hub round-trips per collective keeps the message count at O(ranks)
// and — more importantly — keeps every rank's view sequenced: a rank
// cannot leave a collective before the hub has heard from everyone.

void Transport::barrier() {
  const int n = num_ranks();
  if (n == 1) return;
  if (rank() == 0) {
    for (int r = 1; r < n; ++r) (void)recv(r);
    for (int r = 1; r < n; ++r) send(r, Packet{});
  } else {
    send(0, Packet{});
    (void)recv(0);
  }
}

double Transport::allreduce(
    double value, const std::function<double(double, double)>& op) {
  const int n = num_ranks();
  if (n == 1) return value;
  if (rank() == 0) {
    // Reduce in rank order: acc = slot[0]; acc = op(acc, slot[r]), so
    // results are bit-identical on every carrier.
    double acc = value;
    for (int r = 1; r < n; ++r) {
      Packet p = recv(r);
      acc = op(acc, p.unpack<double>());
    }
    for (int r = 1; r < n; ++r) {
      Packet out;
      out.pack(acc);
      send(r, std::move(out));
    }
    return acc;
  }
  Packet p;
  p.pack(value);
  send(0, std::move(p));
  Packet result = recv(0);
  return result.unpack<double>();
}

std::vector<Packet> Transport::allgather(Packet packet) {
  const int n = num_ranks();
  if (n == 1) {
    std::vector<Packet> all;
    all.push_back(std::move(packet));
    return all;
  }
  if (rank() == 0) {
    std::vector<std::vector<std::uint8_t>> images(
        static_cast<std::size_t>(n));
    images[0] = packet.release_bytes();
    for (int r = 1; r < n; ++r) {
      images[static_cast<std::size_t>(r)] = recv(r).release_bytes();
    }
    // Fan the full set back out as one nested packet per rank.
    for (int r = 1; r < n; ++r) {
      Packet out;
      for (const auto& image : images) out.pack_vector(image);
      send(r, std::move(out));
    }
    std::vector<Packet> all;
    all.reserve(static_cast<std::size_t>(n));
    for (auto& image : images) {
      all.push_back(Packet::from_bytes(std::move(image)));
    }
    return all;
  }
  send(0, std::move(packet));
  Packet bundle = recv(0);
  std::vector<Packet> all;
  all.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    all.push_back(Packet::from_bytes(bundle.unpack_vector<std::uint8_t>()));
  }
  return all;
}

Packet Transport::broadcast(int root, Packet packet) {
  const int n = num_ranks();
  if (root < 0 || root >= n) {
    throw TransportError("broadcast root out of range", FaultClass::fatal);
  }
  if (n == 1) return packet;
  if (rank() == root) {
    for (int r = 0; r < n; ++r) {
      if (r == root) continue;
      Packet copy = Packet::from_bytes(packet.bytes());
      send(r, std::move(copy));
    }
    return packet;
  }
  return recv(root);
}

}  // namespace pigp::net
