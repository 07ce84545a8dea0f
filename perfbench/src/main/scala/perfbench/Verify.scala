package perfbench

import java.sql.DriverManager
import org.apache.spark.sql.Row
import org.duckdb.DuckDBConnection

/** A result as a bag of tuples: columns sorted by (lower-cased) name, each
  * row's values in that column order, rows sorted. Two results are equal
  * exactly when their bags are equal; no string concatenation is involved,
  * so rows whose values merely concatenate alike stay distinct.
  */
final case class Bag(cols: Vector[String], rows: Vector[Vector[Option[String]]]) {

  /** None when equal, else a one-line description of the difference. */
  def diff(expected: Bag): Option[String] =
    if (cols != expected.cols) Some(s"columns ${cols.mkString(",")} != ${expected.cols.mkString(",")}")
    else if (rows == expected.rows) None
    else {
      val extra = rows.diff(expected.rows)
      val missing = expected.rows.diff(rows)
      def show(r: Seq[Vector[Option[String]]]) = r.take(2).map(_.map(_.getOrElse("NULL")).mkString("(", ",", ")"))
      Some(s"${rows.size} rows vs ${expected.rows.size} expected; " +
        s"unexpected ${show(extra).mkString(" ")}; missing ${show(missing).mkString(" ")}")
    }
}

object Bag {
  private implicit val rowOrdering: Ordering[Vector[Option[String]]] =
    Ordering.Implicits.seqOrdering[Vector, Option[String]]

  def apply(cols: Seq[String], rows: Iterator[IndexedSeq[Option[String]]]): Bag = {
    val lower = cols.map(_.toLowerCase).toVector
    val order = lower.indices.sortBy(lower).toVector
    new Bag(order.map(lower), rows.map(r => order.map(r)).toVector.sorted)
  }

  def ofRows(cols: Seq[String], rows: Array[Row]): Bag =
    Bag(cols, rows.iterator.map(r => r.toSeq.toIndexedSeq.map(v => Option(v).map(_.toString))))
}

/** In-process DuckDB holding the run's own triples as `triples(s, p, o)`.
  * Expected rows come from [[repro.sparql.ReferenceSql]] run here, never
  * from hard-coded counts.
  */
final class DuckOracle(triples: Array[(String, String, String)]) extends AutoCloseable {
  Class.forName("org.duckdb.DuckDBDriver")
  private val conn = DriverManager.getConnection("jdbc:duckdb:").asInstanceOf[DuckDBConnection]
  conn.createStatement.execute("CREATE TABLE triples (s VARCHAR, p VARCHAR, o VARCHAR)")
  locally {
    val app = conn.createAppender("main", "triples")
    try triples.foreach { case (s, p, o) =>
      app.beginRow(); app.append(s); app.append(p); app.append(o); app.endRow()
    }
    finally app.close()
  }

  def query(sql: String): Bag = {
    val rs = conn.createStatement.executeQuery(sql)
    val n = rs.getMetaData.getColumnCount
    val cols = (1 to n).map(rs.getMetaData.getColumnLabel)
    Bag(cols, Iterator.continually(rs).takeWhile(_.next()).map(r => (1 to n).map(i => Option(r.getString(i)))))
  }

  override def close(): Unit = conn.close()
}
