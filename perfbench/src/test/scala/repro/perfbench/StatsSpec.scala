package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("percentile interpolates linearly between closest ranks") {
    val xs = Seq(4.0, 1.0, 3.0, 2.0)
    assert(Stats.percentile(xs, 0) == 1.0)
    assert(Stats.percentile(xs, 100) == 4.0)
    assert(Stats.percentile(xs, 50) == 2.5)
    assert(math.abs(Stats.percentile(xs, 25) - 1.75) < 1e-12)
    assert(math.abs(Stats.percentile(xs, 90) - 3.7) < 1e-12)
  }

  test("median of an odd sample is its middle value") {
    assert(Stats.median(Seq(9.0, 1.0, 5.0)) == 5.0)
    assert(Stats.median(Seq(7.0)) == 7.0)
  }

  test("percentile of an empty sample is NaN, out-of-range p is refused") {
    assert(Stats.median(Seq.empty).isNaN)
    assertThrows[IllegalArgumentException](Stats.percentile(Seq(1.0), 101))
  }

  test("the supported tail leaves at least ten samples above it") {
    assert(Stats.supportedTail(19).isEmpty)
    assert(Stats.supportedTail(100).contains(90.0))
    assert(Stats.supportedTail(999).contains(90.0))
    assert(Stats.supportedTail(1000).contains(99.0))
    assert(Stats.supportedTail(10000).contains(99.9))
  }

  test("summary reports the tail only when the sample supports it") {
    assert(!Stats.summary((1 to 50).map(_.toDouble)).contains("p90.0"))
    val s = Stats.summary((1 to 100).map(_.toDouble))
    assert(s("n") == 100 && s.contains("p90.0"))
  }

  test("residual is the total less its measured parts, unclamped") {
    assert(Stats.residual(500.0, Seq(230.0, 240.0, 8.0, 7.0)) == 15.0)
    assert(Stats.residual(10.0, Seq.empty) == 10.0)
    assert(Stats.residual(10.0, Seq(6.0, 6.0)) == -2.0)
  }
}
