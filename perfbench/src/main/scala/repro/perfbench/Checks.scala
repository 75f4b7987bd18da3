package repro.perfbench

import repro.core.QuTClustering
import repro.model.{Assignment, SubTraj}

import java.security.MessageDigest

/** Order-independent digests of clustering outputs. Votes and distances are
  * left out: they are sums of doubles whose last bits may depend on the
  * order Spark adds them in, while the structure they decide must not.
  */
object Checks {

  private def digest(parts: Iterable[String]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    parts.foreach(p => md.update((p + "\n").getBytes("UTF-8")))
    md.digest().take(12).map(b => f"${b & 0xff}%02x").mkString
  }

  private def key(s: SubTraj): String = s"${s.objId}/${s.subId}/${s.tStart}/${s.tEnd}/${s.size}"

  /** S2T output: the segmentation, the representatives in selection order
    * (their index is the cluster id) and every assignment.
    */
  def s2t(subs: Array[SubTraj], reps: Array[SubTraj], assignments: Array[Assignment]): String =
    digest(subs.map(key).sorted.toSeq ++ Seq("reps") ++ reps.map(key).toSeq ++ Seq("assign") ++
           assignments.map(a => s"${a.objId}/${a.subId}/${a.clusterId}").sorted.toSeq)

  /** QuT output: each cluster's member count and representatives, and the
    * outliers.
    */
  def qut(r: QuTClustering.Result): String =
    digest(r.clusters.map(c => s"${c.nMembers}:" + c.reps.map(key).mkString(",")).sorted.toSeq ++
           Seq("outliers") ++ r.outliers.map(a => s"${a.objId}/${a.subId}").sorted.toSeq)

  /** A message for each representative of `r` that lies outside [w0, w1). */
  def repsInside(r: QuTClustering.Result, w: Window): Option[String] =
    r.clusters.flatMap(_.reps).find(s => s.tStart < w.w0 || s.tEnd >= w.w1).map(s =>
      s"representative ${key(s)} outside [${w.w0}, ${w.w1})")
}
