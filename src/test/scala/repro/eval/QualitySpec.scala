package repro.eval

import org.scalatest.funsuite.AnyFunSuite

class QualitySpec extends AnyFunSuite {

  test("ARI of identical partitions is 1") {
    val pairs = Seq((0, 0), (0, 0), (1, 1), (1, 1), (2, 2))
    assert(math.abs(Quality.ari(pairs) - 1.0) < 1e-12)
  }

  test("ARI is invariant to cluster relabelling") {
    val a = Seq((0, 0), (0, 0), (1, 1), (1, 1))
    val b = Seq((0, 7), (0, 7), (1, 3), (1, 3))
    assert(math.abs(Quality.ari(a) - Quality.ari(b)) < 1e-12)
    assert(math.abs(Quality.ari(b) - 1.0) < 1e-12)
  }

  test("ARI of a single merged cluster against two truth classes is 0") {
    val pairs = Seq((0, 0), (0, 0), (1, 0), (1, 0))
    assert(math.abs(Quality.ari(pairs)) < 1e-12)
  }

  test("ARI of empty input is 1 by convention") {
    assert(Quality.ari(Seq.empty) == 1.0)
  }

  test("ARI of a single point is 1 by convention") {
    assert(Quality.ari(Seq((0, 0))) == 1.0)
    assert(Quality.ari(Seq((3, -1))) == 1.0)
  }

  test("ARI penalizes splitting a truth class across clusters") {
    val perfect = Seq.fill(10)((0, 0)) ++ Seq.fill(10)((1, 1))
    val split = Seq.fill(5)((0, 0)) ++ Seq.fill(5)((0, 2)) ++ Seq.fill(10)((1, 1))
    assert(Quality.ari(split) < Quality.ari(perfect))
  }

  test("ARI of random-ish assignment is near 0") {
    val rnd = new scala.util.Random(5)
    val pairs = Seq.fill(2000)((rnd.nextInt(4), rnd.nextInt(4)))
    assert(math.abs(Quality.ari(pairs)) < 0.1)
  }

  test("ARI is symmetric in truth and prediction") {
    val pairs = Seq((0, 1), (0, 1), (0, 2), (1, 2), (1, 1), (2, 0), (2, 0))
    assert(math.abs(Quality.ari(pairs) - Quality.ari(pairs.map(_.swap))) < 1e-12)
  }

  test("purity of perfect clustering is 1") {
    assert(Quality.purity(Seq((0, 0), (1, 1), (2, 2))) == 1.0)
  }

  test("purity of a fully merged clustering is the majority share") {
    val pairs = Seq.fill(6)((0, 0)) ++ Seq.fill(4)((1, 0))
    assert(math.abs(Quality.purity(pairs) - 0.6) < 1e-12)
  }

  test("purity of empty input is 1 by convention") {
    assert(Quality.purity(Seq.empty) == 1.0)
  }

  test("purity never decreases when a mixed cluster is split correctly") {
    val merged = Seq.fill(5)((0, 0)) ++ Seq.fill(5)((1, 0))
    val split = Seq.fill(5)((0, 0)) ++ Seq.fill(5)((1, 1))
    assert(Quality.purity(split) >= Quality.purity(merged))
  }

  test("groupRecall counts only truly-grouped points") {
    val pairs = Seq((0, 0), (0, -1), (-1, -1), (-1, 3))
    // grouped points: (0,0) clustered, (0,-1) missed → recall 0.5
    assert(math.abs(Quality.groupRecall(pairs) - 0.5) < 1e-12)
  }

  test("groupRecall is 1 when there are no grouped points") {
    assert(Quality.groupRecall(Seq((-1, -1), (-1, 0))) == 1.0)
  }

  test("groupRecall is 0 when every grouped point is called noise") {
    assert(Quality.groupRecall(Seq((0, -1), (1, -1))) == 0.0)
  }
}
