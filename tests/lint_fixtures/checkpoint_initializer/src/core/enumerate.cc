namespace relcomp {

// A constructor that polls. Its member initializers are not functions:
// a loop that only reads `steps` has no evidence of polling.
struct Walker {
  Walker(SearchCheckpoint* checkpoint, int start)
      : checkpoint(checkpoint), steps(start) {
    checkpoint->Tick();
  }
  SearchCheckpoint* checkpoint;
  int steps;
};

// A polling constructor declared right after an access specifier still
// counts as a definition: constructing one is evidence.
class Ticker {
 public:
  Ticker(SearchCheckpoint* checkpoint) { checkpoint->Tick(); }
};

int Sum(const Walker& walker, int n) {
  int sum = 0;
  while (n-- > 0) sum += walker.steps;
  return sum;
}

void Spin(SearchCheckpoint* checkpoint, int n) {
  while (n-- > 0) Ticker ticker(checkpoint);
}

}  // namespace relcomp
