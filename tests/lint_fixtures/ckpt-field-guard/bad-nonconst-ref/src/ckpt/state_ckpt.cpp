// Fixture: the codec's own struct is guarded, but the payload struct it
// serializes is reached only through a non-const reference and carries no
// guard.
#include <cstdint>
#include <vector>

namespace gtrix {

class CkptIo;

struct Part {
  std::uint32_t id = 0;
  double value = 0.0;
};

struct Wobble {
  std::uint32_t a = 0;
  std::vector<Part> parts;
  void checkpoint(CkptIo& io);
};

void Wobble::checkpoint(CkptIo& io) {
  GTRIX_CKPT_FIELDS(Wobble, 2);
  (void)io;
  for (Part& p : parts) (void)p;  // would list p.id and p.value
}

}  // namespace gtrix
