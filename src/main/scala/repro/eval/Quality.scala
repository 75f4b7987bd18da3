package repro.eval

/** External clustering quality metrics over per-point labels.
  *
  * The synthetic generator plants a ground-truth group id per point; a
  * clustering method produces a cluster id per point (outliers/noise = -1).
  * ARI and purity quantify agreement — usable here precisely because the
  * dataset substitution gives us ground truth the real aircraft MOD lacks.
  */
object Quality {

  /** Adjusted Rand Index over (truth, predicted) pairs. 1 = identical
    * partitions, ~0 = random agreement. Noise labels participate as their
    * own class/cluster values (so scattering noise across clusters hurts).
    * Fewer than two points form no pair, so any two partitions agree: 1.
    */
  def ari(pairs: Seq[(Int, Int)]): Double = {
    if (pairs.lengthCompare(2) < 0) return 1.0
    val n = pairs.size.toDouble
    val cont = pairs.groupBy(identity).view.mapValues(_.size.toDouble).toMap
    val rowSums = pairs.groupBy(_._1).view.mapValues(_.size.toDouble).toMap
    val colSums = pairs.groupBy(_._2).view.mapValues(_.size.toDouble).toMap
    def c2(v: Double): Double = v * (v - 1) / 2.0
    val sumIJ = cont.values.map(c2).sum
    val sumI = rowSums.values.map(c2).sum
    val sumJ = colSums.values.map(c2).sum
    val expected = sumI * sumJ / c2(n)
    val maxIdx = (sumI + sumJ) / 2.0
    if (math.abs(maxIdx - expected) < 1e-12) 1.0
    else (sumIJ - expected) / (maxIdx - expected)
  }

  /** Purity: fraction of points whose cluster's majority truth label matches
    * their own. Noise cluster (-1) counts like any cluster.
    */
  def purity(pairs: Seq[(Int, Int)]): Double = {
    if (pairs.isEmpty) return 1.0
    val byCluster = pairs.groupBy(_._2)
    val correct = byCluster.values.map { members =>
      members.groupBy(_._1).values.map(_.size).max
    }.sum
    correct.toDouble / pairs.size
  }

  /** Fraction of truly-grouped points (truth != -1) that the clustering
    * placed in some cluster (pred != -1) — co-movement recall.
    */
  def groupRecall(pairs: Seq[(Int, Int)]): Double = {
    val grouped = pairs.filter(_._1 != -1)
    if (grouped.isEmpty) 1.0
    else grouped.count(_._2 != -1).toDouble / grouped.size
  }
}
