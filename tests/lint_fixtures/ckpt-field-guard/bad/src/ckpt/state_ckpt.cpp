// Fixture: codec without a field-count guard.
#include <cstdint>

namespace gtrix {

class CkptIo;

struct Wobble {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  void checkpoint(CkptIo& io);
};

void Wobble::checkpoint(CkptIo& io) {
  (void)io;  // would list a and b; nothing pins the field count
}

}  // namespace gtrix
