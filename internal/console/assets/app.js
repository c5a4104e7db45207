/* eX-IoT operator console — no build step, no dependencies.
 * Polls /console/api/* for panel data and rides /console/api/events
 * (SSE) for between-poll stats ticks and live feed records. */
"use strict";

const $ = (sel) => document.querySelector(sel);
const API = "/console/api";
const POLL_MS = 5000;

/* ---------- formatting ---------- */

function fmtInt(n) {
  if (n === undefined || n === null) return "–";
  return Number(n).toLocaleString("en-US");
}

function fmtSecs(s) {
  if (s === undefined || s === null) return "–";
  if (s >= 1) return s.toFixed(2) + "s";
  if (s >= 1e-3) return (s * 1e3).toFixed(1) + "ms";
  return (s * 1e6).toFixed(0) + "µs";
}

function fmtNS(ns) { return fmtSecs(ns / 1e9); }

function fmtTime(iso) {
  if (!iso) return "–";
  const d = new Date(iso);
  if (isNaN(d)) return "–";
  return d.toISOString().replace("T", " ").slice(0, 16);
}

function td(text, cls) {
  const cell = document.createElement("td");
  cell.textContent = text;
  if (cls) cell.className = cls;
  return cell;
}

/* [key, count] pairs of a count map, largest first, key order on ties. */
function byCount(counts) {
  return Object.entries(counts || {})
    .sort((a, b) => b[1] - a[1] || a[0].localeCompare(b[0]));
}

/* ---------- feed volume chart ---------- */

function polyline(points, color, width) {
  const el = document.createElementNS("http://www.w3.org/2000/svg", "polyline");
  el.setAttribute("points", points.join(" "));
  el.setAttribute("fill", "none");
  el.setAttribute("stroke", color);
  el.setAttribute("stroke-width", width || 1.5);
  return el;
}

function drawVolume(volume) {
  const svg = $("#volume-chart");
  svg.replaceChildren();
  if (!volume || volume.length < 2) {
    $("#volume-sub").textContent = "(collecting samples…)";
    return;
  }
  const W = 800, H = 160, PAD = 4;
  const series = [
    { key: "records",   color: getComputedStyle(document.body).getPropertyValue("--records") },
    { key: "events",    color: getComputedStyle(document.body).getPropertyValue("--events") },
    { key: "flow_ends", color: getComputedStyle(document.body).getPropertyValue("--flowends") },
  ];
  let peak = 1;
  for (const p of volume) {
    for (const s of series) peak = Math.max(peak, p[s.key] || 0);
  }
  const x = (i) => PAD + (i / (volume.length - 1)) * (W - 2 * PAD);
  const y = (v) => H - PAD - (v / peak) * (H - 2 * PAD);
  for (const s of series) {
    const pts = volume.map((p, i) => `${x(i).toFixed(1)},${y(p[s.key] || 0).toFixed(1)}`);
    svg.appendChild(polyline(pts, s.color.trim()));
  }
  const span = (new Date(volume[volume.length - 1].at) - new Date(volume[0].at)) / 1000;
  $("#volume-sub").textContent =
    `(last ${Math.round(span)}s, peak ${fmtInt(peak)}/tick)`;
}

/* ---------- overview panels ---------- */

function renderOverview(ov) {
  const snap = ov.snapshot || {};
  $("#t-records").textContent = fmtInt(snap.total_records);
  $("#t-active").textContent = fmtInt(snap.active_records);
  $("#t-iot").textContent = fmtInt(snap.iot_records);
  $("#t-benign").textContent = fmtInt(snap.benign_records);
  $("#t-rph").textContent =
    snap.records_per_hour === undefined ? "–" : snap.records_per_hour.toFixed(1);
  $("#t-seq").textContent = ov.feed ? fmtInt(ov.feed.last_seq) : "–";
  $("#t-sse").textContent = fmtInt(ov.sse_clients);

  drawVolume(ov.volume);
  renderTop("#top-countries", snap.top_countries);
  renderTop("#top-ports", snap.top_ports);
  renderTop("#top-vendors", snap.top_vendors);

  const layerBody = $("#layer-table tbody");
  layerBody.replaceChildren();
  for (const l of ov.layers || []) {
    const tr = document.createElement("tr");
    tr.append(td(l.layer), td(fmtInt(l.calls), "num"), td(fmtInt(l.items), "num"),
      td(fmtNS(l.ns_per_item), "num"),
      td(fmtSecs(l.p50), "num"), td(fmtSecs(l.p90), "num"), td(fmtSecs(l.p99), "num"));
    layerBody.appendChild(tr);
  }

  renderHealth(ov.health);
  renderCluster(ov.cluster);
}

function renderTop(sel, counts) {
  const body = $(sel + " tbody");
  body.replaceChildren();
  for (const [key, n] of byCount(counts)) {
    const tr = document.createElement("tr");
    tr.append(td(key), td(fmtInt(n), "num"));
    body.appendChild(tr);
  }
}

function renderHealth(health) {
  const pill = $("#health-pill");
  if (!health) {
    pill.textContent = "health: n/a";
    pill.className = "pill";
  } else {
    pill.textContent = health.healthy ? "healthy" : "UNHEALTHY";
    pill.className = "pill " + (health.healthy ? "ok" : "bad");
  }
  const body = $("#health-table tbody");
  body.replaceChildren();
  for (const c of (health && health.components) || []) {
    const tr = document.createElement("tr");
    tr.append(td(c.name), td(c.status, "status-" + c.status),
      td(fmtInt(c.beats), "num"),
      td(c.last_beat ? c.age_seconds.toFixed(1) + "s" : "–", "num"));
    body.appendChild(tr);
  }
}

function renderCluster(cluster) {
  const body = $("#cluster-table tbody");
  body.replaceChildren();
  const empty = $("#cluster-empty");
  if (!cluster || cluster.length === 0) {
    empty.style.display = "";
    return;
  }
  empty.style.display = "none";
  for (const sh of cluster) {
    const tr = document.createElement("tr");
    tr.append(td(sh.shard), td(fmtInt(sh.seq), "num"),
      td(fmtInt(sh.pending_frames), "num"), td(sh.lag_hours.toFixed(1), "num"));
    body.appendChild(tr);
  }
}

/* ---------- slowest traces ---------- */

function spanWaterfall(detail) {
  const svg = document.createElementNS("http://www.w3.org/2000/svg", "svg");
  const spans = detail.spans || [];
  const ROW = 18, W = 800, LABEL = 160;
  svg.setAttribute("viewBox", `0 0 ${W} ${spans.length * ROW}`);
  svg.style.height = spans.length * ROW + "px";
  const total = Math.max(detail.total_ns || 1, 1);
  const x = (ns) => LABEL + (ns / total) * (W - LABEL - 10);
  spans.forEach((sp, i) => {
    const label = document.createElementNS("http://www.w3.org/2000/svg", "text");
    label.setAttribute("x", 0);
    label.setAttribute("y", i * ROW + 13);
    label.setAttribute("class", "trace-label");
    label.textContent = `${sp.stage} ${fmtNS(sp.work_ns)}`;
    svg.appendChild(label);
    if (sp.queue_wait_ns > 0) {
      const wait = document.createElementNS("http://www.w3.org/2000/svg", "rect");
      wait.setAttribute("x", x(sp.start_offset_ns - sp.queue_wait_ns));
      wait.setAttribute("y", i * ROW + 3);
      wait.setAttribute("width", Math.max(x(sp.start_offset_ns) - x(sp.start_offset_ns - sp.queue_wait_ns), 1));
      wait.setAttribute("height", ROW - 6);
      wait.setAttribute("class", "trace-wait");
      svg.appendChild(wait);
    }
    const bar = document.createElementNS("http://www.w3.org/2000/svg", "rect");
    bar.setAttribute("x", x(sp.start_offset_ns));
    bar.setAttribute("y", i * ROW + 3);
    bar.setAttribute("width", Math.max(x(sp.start_offset_ns + sp.work_ns) - x(sp.start_offset_ns), 1));
    bar.setAttribute("height", ROW - 6);
    bar.setAttribute("class", "trace-bar");
    svg.appendChild(bar);
  });
  return svg;
}

function renderTraces(data) {
  const root = $("#traces");
  root.replaceChildren();
  const stages = Object.keys(data.stages || {}).sort();
  if (stages.length === 0) {
    root.textContent = "no traces retained (tracing off or no flows yet)";
    return;
  }
  for (const stage of stages) {
    const box = document.createElement("div");
    box.className = "trace-stage";
    const head = document.createElement("div");
    const worst = data.stages[stage][0];
    head.innerHTML = `<span class="stage-name">${stage}</span> — worst ${fmtNS(worst.work_ns)}`;
    box.appendChild(head);
    for (const entry of data.stages[stage].slice(0, 3)) {
      const line = document.createElement("div");
      line.className = "sub";
      line.textContent =
        `trace ${entry.trace.id}  ip ${entry.trace.ip}  total ${fmtNS(entry.trace.total_ns)}`;
      box.appendChild(line);
      box.appendChild(spanWaterfall(entry.trace));
    }
    root.appendChild(box);
  }
}

/* ---------- campaigns ---------- */

function sparkline(history) {
  const svg = document.createElementNS("http://www.w3.org/2000/svg", "svg");
  svg.setAttribute("class", "spark");
  svg.setAttribute("viewBox", "0 0 120 18");
  if (!history || history.length < 2) return svg;
  const peak = Math.max(...history.map((h) => h.size), 1);
  const pts = history.map((h, i) =>
    `${(i / (history.length - 1)) * 118 + 1},${17 - (h.size / peak) * 15}`);
  svg.appendChild(polyline(pts, "currentColor", 1.5));
  return svg;
}

function topCountries(countries) {
  return byCount(countries)
    .slice(0, 3)
    .map(([cc, n]) => `${cc}:${n}`)
    .join(",") || "–";
}

function renderCampaigns(data) {
  $("#campaign-sub").textContent = data.tracked
    ? `tracked as of ${fmtTime(data.as_of)}`
    : "(no tracker wired)";
  const body = $("#campaign-table tbody");
  body.replaceChildren();
  for (const c of data.campaigns || []) {
    const tr = document.createElement("tr");
    tr.append(td(c.id || "–"), td(fmtInt(c.devices), "num"),
      td((c.ports || []).join(",")), td(c.tool || "–"),
      td(topCountries(c.countries)),
      td(fmtTime(c.first_seen)), td(fmtTime(c.last_seen)),
      td(c.status || "–", "status-" + (c.status || "")));
    const trend = document.createElement("td");
    trend.appendChild(sparkline(c.history));
    tr.appendChild(trend);
    body.appendChild(tr);
  }
}

/* ---------- record drill-down ---------- */

$("#record-form").addEventListener("submit", async (e) => {
  e.preventDefault();
  const ip = $("#record-ip").value.trim();
  if (!ip) return;
  const out = $("#record-out");
  const spansSVG = $("#record-spans");
  spansSVG.replaceChildren();
  spansSVG.style.height = "0";
  try {
    const resp = await fetch(`${API}/record/${encodeURIComponent(ip)}`);
    const body = await resp.json();
    out.textContent = JSON.stringify(body, null, 2);
    if (body.trace) {
      const wf = spanWaterfall(body.trace);
      spansSVG.replaceWith(wf);
      wf.id = "record-spans";
    }
  } catch (err) {
    out.textContent = "request failed: " + err;
  }
});

/* ---------- polling + SSE ---------- */

async function poll() {
  try {
    const [ov, traces, campaigns] = await Promise.all([
      fetch(`${API}/overview`).then((r) => r.json()),
      fetch(`${API}/traces`).then((r) => r.json()),
      fetch(`${API}/campaigns`).then((r) => r.json()),
    ]);
    renderOverview(ov);
    renderTraces(traces);
    renderCampaigns(campaigns);
  } catch (err) {
    $("#health-pill").textContent = "poll failed";
    $("#health-pill").className = "pill bad";
  }
}

function connectSSE() {
  const es = new EventSource(`${API}/events`);
  const pill = $("#live-pill");
  es.onopen = () => { pill.textContent = "live: on"; pill.className = "pill ok"; };
  es.onerror = () => { pill.textContent = "live: reconnecting"; pill.className = "pill bad"; };
  es.addEventListener("stats", (ev) => {
    try {
      const frame = JSON.parse(ev.data);
      if (frame.healthy !== undefined && frame.healthy !== null) {
        $("#health-pill").textContent = frame.healthy ? "healthy" : "UNHEALTHY";
        $("#health-pill").className = "pill " + (frame.healthy ? "ok" : "bad");
      }
      if (frame.feed) $("#t-seq").textContent = fmtInt(frame.feed.last_seq);
    } catch { /* malformed frame: next poll corrects the view */ }
  });
  es.addEventListener("record", () => {
    // A feed record changed; refresh the headline numbers soon.
    clearTimeout(connectSSE._t);
    connectSSE._t = setTimeout(poll, 500);
  });
}

poll();
setInterval(poll, POLL_MS);
connectSSE();
