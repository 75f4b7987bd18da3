package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

class WindowsSpec extends AnyFunSuite {
  private val tau = 600L
  private val all: Long => Boolean = c => c >= 0 && c < 8

  test("aligned windows of every width start and end on chunk borders inside the range") {
    val rnd = new Random(1)
    for (k <- 1 to 5; _ <- 1 to 100) {
      val w = Windows.aligned(rnd, tau, 2, 6, k)
      assert(w.aligned && w.widthChunks == k)
      assert(w.w0 % tau == 0 && w.w1 % tau == 0)
      assert(w.w0 >= 2 * tau && w.w1 <= 7 * tau)
      assert(w.w1 - w.w0 == k * tau)
    }
  }

  test("aligned windows reach every start that fits") {
    val rnd = new Random(2)
    val starts = (1 to 500).map(_ => Windows.aligned(rnd, tau, 0, 7, 3).w0 / tau).toSet
    assert(starts == (0L to 5L).toSet)
  }

  test("unaligned windows have both ends strictly inside a chunk of the range") {
    val rnd = new Random(3)
    for (k <- 1 to 7; _ <- 1 to 100) {
      val w = Windows.unaligned(rnd, tau, 0, 7, k)
      assert(!w.aligned && w.widthChunks == k)
      assert(w.w0 % tau != 0 && w.w1 % tau != 0)
      assert(w.w0 > 0 && w.w1 < 8 * tau)
      assert(w.w1 - w.w0 == k * tau)
    }
  }

  test("a window wider than the range is refused") {
    assertThrows[IllegalArgumentException](Windows.aligned(new Random(4), tau, 0, 7, 9))
    assertThrows[IllegalArgumentException](Windows.unaligned(new Random(4), tau, 0, 7, 8))
    assertThrows[IllegalArgumentException](Windows.unaligned(new Random(4), tau, 3, 3, 1))
  }

  test("aligned: every covered chunk is reused, none recomputed") {
    val w = Window(2 * tau, 5 * tau, aligned = true, 3)
    assert(Windows.expectedCounts(w, tau, all) == ((3, 0)))
    assert(Windows.boundaryChunks(w, tau, all).isEmpty)
  }

  test("unaligned: the two clipped chunks are recomputed, the ones between reused") {
    val w = Window(2 * tau + 100, 5 * tau + 100, aligned = false, 3)
    assert(Windows.expectedCounts(w, tau, all) == ((2, 2)))
    assert(Windows.boundaryChunks(w, tau, all) == Seq(2L, 5L))
  }

  test("a one-chunk unaligned window clips two chunks and reuses none") {
    val w = Window(tau + 1, 2 * tau + 1, aligned = false, 1)
    assert(Windows.expectedCounts(w, tau, all) == ((0, 2)))
  }

  test("absent chunks count as neither reused nor recomputed") {
    val some: Long => Boolean = Set(2L, 4L)
    val w = Window(2 * tau + 100, 5 * tau + 100, aligned = false, 3)
    assert(Windows.expectedCounts(w, tau, some) == ((1, 1)))
    assert(Windows.boundaryChunks(w, tau, some) == Seq(2L))
  }

  test("a window ending exactly on a border does not touch the next chunk") {
    val w = Window(tau / 2, 3 * tau, aligned = false, 3)
    assert(Windows.expectedCounts(w, tau, all) == ((2, 1)))
  }

  test("windows are deterministic in the seed") {
    def take(seed: Long) = {
      val rnd = new Random(seed)
      (1 to 40).map(i => if (i % 2 == 0) Windows.aligned(rnd, tau, 0, 7, 1 + i % 8)
                         else Windows.unaligned(rnd, tau, 0, 7, 1 + i % 7))
    }
    assert(take(5) == take(5))
    assert(take(5) != take(6))
  }
}
